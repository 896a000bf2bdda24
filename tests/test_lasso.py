import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevar import lasso as lasso_mod
from sparsevar.cv import WalkForwardPlan, select_lambda
from sparsevar.granger import granger_network
from sparsevar.lasso import (
    LassoConfig,
    LassoError,
    LassoGrid,
    VarModel,
    fit_fgls_lasso_var,
    fit_lasso_var,
    fit_panel_var,
    fit_panel_vars,
    kkt_violation,
    lambda_grid,
    lambda_max,
    lasso_path,
    lasso_paths,
    _bic,
    _cd_gram,
    _admitted,
    _cd_step,
    _check_descent,
    _ar1_rho,
    _fgls_refit,
    _finish,
    _objective,
    _path_moments,
    _predict,
    _pw_basis,
    _settle,
    _whitened_moments,
)
from sparsevar.panel import LagEmbedding, lag_embed, standardize
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate
from conftest import daily_panel


def embed_from_seed(seed, k=3, p=1, t=300, density=0.5, magnitude=0.3):
    spec = SyntheticSpec(
        k=k, p=p, t=t,
        recipe=SparseRecipe(density=density, magnitude=magnitude, seed=seed),
        seed=seed,
    )
    pnl, truth = simulate(spec)
    std, stats = standardize(pnl)
    return lag_embed(std, p), stats, truth


# Residual-form coordinate descent, the reference that the covariance-form
# solver is checked against: same exact solves from the warm start (settle_at, on
# the path's moments), coordinate order, update, threshold and stopping rule, with
# the objective read from a fresh residual.


def objective_value(A: np.ndarray, Y: np.ndarray, Z: np.ndarray, lam: float) -> float:
    """(1/N) ||A Z - Y||_F^2 + lam * sum |A|."""
    resid = Y - A @ Z
    n = Y.shape[1]
    return float(np.sum(resid * resid) / n + lam * np.sum(np.abs(A)))


def settle_at(G, C, yy, lam, A):
    """The exact stage of a one-point ``lasso_paths`` call from the warm starts A (g, R, m),
    which it updates: every group admitted at A's counts is a block of one on the t = 0
    ``_predict`` pattern of A, from A's objective. Returns (settled, their objectives)."""
    adm = np.flatnonzero(_admitted(A)[2])
    W, WG, pen = A[adm], A[adm] @ G[adm], lam[adm]
    S = _predict(W, WG, W, WG, C[adm], 0.0, pen[..., None] / 2.0)
    obj = _objective(W, WG, C[adm], yy[adm], pen)
    ok, f, _ = _settle(G, C, yy, pen, W, S, obj, adm, np.ones(len(adm), dtype=bool), WG, pen)
    settled, first = np.zeros(len(A), dtype=bool), np.full(len(A), np.nan)
    A[adm[ok]], settled[adm[ok]], first[adm[ok]] = W[ok], True, f[ok]
    return settled, first


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
    Each update touches all N sample columns. ``lasso._cd_gram`` runs the
    same iteration in covariance form. ``settle_at`` may stop it at the
    exact optimum before the first sweep (one sweep, its objective the
    history); otherwise it sweeps until the largest change is below tol.
    Returns (A, sweeps, converged, per-sweep objective values).
    """
    if lam < 0:
        raise LassoError(f"lambda must be >= 0, got {lam}")
    K, n = Y.shape
    m = Z.shape[0]
    G, C, yy = _path_moments(Y, Z)
    norms = np.einsum("jn,jn->j", Z, Z) / n
    A = np.zeros((K, m)) if A0 is None else np.array(A0, dtype=float)
    settled, first = settle_at(G[None], C[None], np.array([yy]), np.array([[lam]]), A[None])
    if settled[0]:
        return A, 1, True, [float(first[0])]
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
            old = A[:, j]
            rho_j = (R @ zj) / n + old * nj
            new = np.sign(rho_j) * np.maximum(np.abs(rho_j) - half_lam, 0.0) / nj
            delta = new - old
            if (delta != 0.0).any():
                R -= delta[:, None] * zj
                A[:, j] = new
                change = float(np.abs(delta).max())
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


# The covariance-form sweep kernel with the sign-and-max step: 16 numpy calls per
# coordinate, the threshold as sign(rho) * max(|rho| - lambda / 2, 0), the change
# tracked at every coordinate and a column written only when it moved. It reads
# row j of each (symmetric) Gram for column j, as ``lasso._cd_gram`` does, but
# compacts by copies G[groups], leaves G as it came and runs a lone group on 2-D
# views. The lean step of ``lasso._cd_step`` must reproduce its coefficients (up to
# the sign of zero), sweeps, convergence flags and objective histories exactly, for
# groups of several rows and for the one-row groups of FGLS stage 2.


def _cd_gram_signmax(G, C, yy, lam, tol, max_sweeps, A):
    lam = np.asarray(lam, dtype=float)
    g = len(C)
    sweeps, converged, history = np.full(g, max_sweeps), np.zeros(g, dtype=bool), [[] for _ in C]
    diag = np.diagonal(G, axis1=1, axis2=2)
    scale = np.where(diag > 0, diag, 1.0)
    groups, live, W = np.arange(g), np.ones(g, dtype=bool), None
    for sweep in range(1, max_sweeps + 1):
        if W is None or 2 * np.count_nonzero(live) <= len(live):
            if W is not None:
                A[groups[live]] = W[live]
            groups, live = groups[live], live[live]
            lone = len(groups) == 1
            sel = slice(groups[0], groups[0] + 1) if lone else groups
            W, Gw, Cw, yyw, lamw = A[sel], G[sel], C[sel], yy[sel], lam[sel]
            if lone:
                X = W[0]
                cols = list(zip(X.T, Gw[0], Cw[0].T, scale[groups[0]]))
                half_lam = lamw[0] / 2.0 if lamw.size > 1 else float(lamw[0, 0]) / 2.0
            else:
                X = W
                cols = list(zip(W.transpose(2, 0, 1)[..., None], Gw.transpose(1, 0, 2)[..., None],
                                Cw.transpose(2, 0, 1)[..., None],
                                scale[groups].T[:, :, None, None]))
                half_lam = lamw[..., None] / 2.0
        max_change = 0.0 if lone else np.zeros((len(groups), 1, 1))
        for x_j, g_j, c_j, s_j in cols:
            rho_j = c_j - X @ g_j + x_j * s_j
            new = np.sign(rho_j) * np.maximum(np.abs(rho_j) - half_lam, 0.0) / s_j
            if lone:
                change = float(np.abs(new - x_j).max())
                if change > 0.0:
                    x_j[...] = new
                    max_change = max(max_change, change)
            else:
                change = np.abs(new - x_j).max(axis=1, keepdims=True)
                np.copyto(x_j, new, where=change > 0.0)
                np.maximum(max_change, change, out=max_change)
        if lamw.shape[1] == 1:
            l1 = lamw[:, 0] * np.abs(W).sum(axis=(1, 2))
        else:
            l1 = (lamw[:, None, :] @ np.abs(W).sum(axis=2)[:, :, None])[:, 0, 0]
        obj = yyw - 2.0 * (W * Cw).sum(axis=(1, 2)) + ((W @ Gw) * W).sum(axis=(1, 2)) + l1
        for k, (i, o, change) in enumerate(zip(groups.tolist(), obj.tolist(),
                                               np.ravel(max_change).tolist())):
            if live[k]:
                _check_descent(sweep, history[i][-1] if history[i] else np.inf, o)
                history[i].append(o)
                if change < tol:
                    live[k], sweeps[i], converged[i], A[i] = False, sweep, True, W[k]
        if not live.any():
            return sweeps, converged, history
    A[groups[live]] = W[live]
    return sweeps, converged, history


def prais_winsten(M: np.ndarray, rho: float) -> np.ndarray:
    """Quasi-difference along the last axis; first column scaled by sqrt(1 - rho^2).
    The whitening reference that ``lasso._whitened_moments`` is checked against."""
    M = np.asarray(M, dtype=float)
    out = np.empty_like(M)
    out[..., 0] = np.sqrt(1.0 - rho * rho) * M[..., 0]
    out[..., 1:] = M[..., 1:] - rho * M[..., :-1]
    return out


def design(Y, Z, count):
    """The (basis, n, count) of a design's samples that ``_fgls_refit`` reads."""
    return _pw_basis(Y, Z), Y.shape[1], count


def residual_stage2(Y, Z, A1, lam, cfg, rho):
    """FGLS stage 2 at the given rho: one residual-form solve per equation on
    its Prais-Winsten whitened data, warm-started from A1. Returns (A, the
    sweeps and convergence of each solve, their objectives in row order)."""
    A = np.empty_like(A1)
    sweeps, converged, history = [], [], []
    for k in range(Y.shape[0]):
        yw = prais_winsten(Y[k: k + 1], rho[k])
        Zw = prais_winsten(Z, rho[k])
        row, sw, conv, hist = _cd_solve(yw, Zw, lam, cfg.tol, cfg.max_sweeps, A1[k: k + 1].copy())
        A[k] = row[0]
        sweeps.append(sw)
        converged.append(conv)
        history.extend(hist)
    return A, sweeps, converged, history


def ar1_stage1_path(k, seed, cfg):
    """Standardized p = 2 embedding of a simulate() AR(1)-error panel and its
    converged stage-1 path: (Y, Z, stacked A (P, K, m), per-point penalties)."""
    spec = SyntheticSpec(
        k=k, p=2, t=402, recipe=SparseRecipe(density=0.3, magnitude=0.25, seed=seed),
        error="ar1", rho=0.5, seed=seed,
    )
    pnl, _ = simulate(spec)
    std, _ = standardize(pnl)
    emb = lag_embed(std, 2)
    path = list(lasso_path(emb.Y, emb.Z, lambda_grid(lambda_max(emb.Y, emb.Z), cfg.grid), cfg))
    assert all(converged for _, _, converged, _ in path)
    return emb.Y, emb.Z, np.stack([A for _, A, _, _ in path]), np.array([lam for lam, *_ in path])


def ista_oracle(Y, Z, lam, iters=200_000, tol=1e-14):
    """Joint proximal-gradient solver for (1/N)||AZ-Y||^2 + lam ||A||_1."""
    n = Y.shape[1]
    L = 2.0 * np.linalg.eigvalsh(Z @ Z.T / n).max()
    step = 1.0 / L
    A = np.zeros((Y.shape[0], Z.shape[0]))
    for _ in range(iters):
        grad = (2.0 / n) * (A @ Z - Y) @ Z.T
        V = A - step * grad
        A_new = np.sign(V) * np.maximum(np.abs(V) - step * lam, 0.0)
        if np.max(np.abs(A_new - A)) < tol:
            return A_new
        A = A_new
    return A


def soft_threshold(z, gamma):
    """The threshold of one ``_cd_step`` from x_j = 0 with s_j = 1 and t = 0, where
    rho = z: x_j <- z - clip(z, -gamma, gamma)."""
    z = np.asarray(z, dtype=float)
    t, x, u = np.zeros_like(z), np.zeros_like(z), np.empty_like(z)
    _cd_step(t, z, x, 1.0, -gamma, gamma, u)
    return float(x) if x.ndim == 0 else x


class TestSoftThreshold:
    def test_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_hand_value(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zero_gamma_is_identity(self):
        assert soft_threshold(1.7, 0.0) == 1.7

    def test_dead_zone_gives_positive_zero(self):
        out = soft_threshold(np.array([-0.5, -0.0, 0.0, 0.5]), 1.0)
        assert np.array_equal(out, np.zeros(4)) and not np.signbit(out).any()

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    def test_shrinks_toward_zero(self, z, g):
        out = soft_threshold(z, g)
        assert abs(out) <= abs(z)
        assert out * z >= 0.0
        assert out == math.copysign(max(abs(z) - g, 0.0), z) or out == 0.0


class TestFitLassoVar:
    def test_lambda_zero_matches_least_squares(self):
        emb, _, _ = embed_from_seed(0)
        model = fit_lasso_var(emb, LassoConfig(lam=0.0, tol=1e-10, max_sweeps=5000))
        A_ols = np.linalg.lstsq(emb.Z.T, emb.Y.T, rcond=None)[0].T
        assert np.max(np.abs(model.A - A_ols)) < 1e-6

    def test_lambda_max_gives_empty_model(self):
        emb, _, _ = embed_from_seed(1)
        lmax = lambda_max(emb.Y, emb.Z)
        model = fit_lasso_var(emb, LassoConfig(lam=lmax * (1 + 1e-12), tol=1e-10))
        assert np.all(model.A == 0.0)
        assert kkt_violation(model, emb) <= 1e-10

    def test_orthonormal_design_closed_form(self, rng):
        # whiten Z so Z Z^T / n = I; then each coefficient is the soft
        # threshold of its OLS value at lam/2
        K, n = 4, 200
        Z_raw = rng.standard_normal((K, n))
        W = np.linalg.cholesky(Z_raw @ Z_raw.T / n)
        Z = np.linalg.solve(W, Z_raw)
        np.testing.assert_allclose(Z @ Z.T / n, np.eye(K), atol=1e-12)
        Y = rng.standard_normal((K, n))
        lam = 0.3
        from sparsevar.panel import LagEmbedding

        emb = LagEmbedding(Y=Y, Z=Z, p=1, names=("a", "b", "c", "d"))
        model = fit_lasso_var(emb, LassoConfig(lam=lam, tol=1e-12, max_sweeps=5000))
        A_ols = (Y @ Z.T) / n
        expected = np.sign(A_ols) * np.maximum(np.abs(A_ols) - lam / 2.0, 0.0)
        assert np.max(np.abs(model.A - expected)) < 1e-8
        # brute-force prox oracle agrees with the closed form
        A_ista = ista_oracle(Y, Z, lam)
        assert np.max(np.abs(A_ista - expected)) < 1e-8

    def test_matches_joint_prox_gradient_oracle(self):
        # per-equation fitting equals joint fitting: K=2, p=1, T=50
        emb, _, _ = embed_from_seed(2, k=2, p=1, t=50)
        lam = 0.2
        model = fit_lasso_var(emb, LassoConfig(lam=lam, tol=1e-12, max_sweeps=20000))
        A_ista = ista_oracle(emb.Y, emb.Z, lam)
        assert np.max(np.abs(model.A - A_ista)) < 1e-6

    def test_objective_nonincreasing_per_sweep(self):
        for seed in range(5):
            emb, _, _ = embed_from_seed(seed, k=4, p=2, t=200)
            model = fit_lasso_var(emb, LassoConfig(lam=0.05, tol=1e-10))
            hist = model.objective_history
            # allowance is float reading noise only, not algorithmic slack
            assert all(
                b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(hist, hist[1:])
            )

    def test_nonconvergence_flagged_not_raised(self):
        # m = 24 regressors, up to 23 of them active per equation at the optimum:
        # a pattern that dense is beyond admission (24^3 > 20^3), so no exact
        # solve can settle the fit, and one sweep from zero does not converge it
        emb, _, _ = embed_from_seed(3, k=6, p=4)
        lam = 0.01 * lambda_max(emb.Y, emb.Z)
        model = fit_lasso_var(emb, LassoConfig(lam=lam, tol=1e-14, max_sweeps=1))
        assert not model.converged
        assert model.sweeps == 1

    def test_l1_norm_monotone_along_path(self):
        emb, _, _ = embed_from_seed(4, k=4, p=2, t=250)
        lams = lambda_grid(lambda_max(emb.Y, emb.Z), LassoGrid(n_points=30, ratio=1e-3))
        cfg = LassoConfig(tol=1e-9, max_sweeps=5000)
        norms = [np.abs(A).sum() for _, A, _, _ in lasso_path(emb.Y, emb.Z, lams, cfg)]
        # descending grid: L1 norm grows as the penalty shrinks (solver tol slack)
        assert all(b >= a - 1e-8 for a, b in zip(norms, norms[1:]))

    def test_zero_regressor_rejected(self):
        panel = daily_panel(np.column_stack([np.arange(1.0, 9.0), np.zeros(8)]))
        # standardize would reject the flat column first; bypass via raw embed
        from sparsevar.panel import LagEmbedding

        emb = LagEmbedding(
            Y=panel.values[1:].T, Z=panel.values[:-1].T, p=1, names=panel.names
        )
        with pytest.raises(LassoError, match="identically zero"):
            fit_lasso_var(emb, LassoConfig(lam=0.1))


class TestPathEquivalence:
    """The covariance form (lasso paths, fixed-penalty fits, FGLS stage 2)
    against the residual-form reference ``_cd_solve``."""

    @pytest.mark.parametrize(
        "rows,k,p,t,seed",
        [
            (1, 4, 5, 2005, 0),   # single response, m = 20, n = 2000
            (1, 2, 1, 120, 1),    # single response, m = 2
            (4, 4, 2, 302, 2),    # m = 8, n = 300
            (4, 4, 5, 2005, 3),   # m = 20, n = 2000
            (10, 10, 2, 1002, 4), # m = 20, n = 1000
            (4, 6, 4, 402, 5),    # m = 24: dense points beyond admission sweep
        ],
    )
    def test_matches_residual_form(self, rows, k, p, t, seed):
        emb, _, _ = embed_from_seed(seed, k=k, p=p, t=t, density=0.3, magnitude=0.25)
        Y, Z = emb.Y[:rows], emb.Z
        m = Z.shape[0]
        cfg = LassoConfig(grid=LassoGrid(n_points=30, ratio=1e-3))
        lams = lambda_grid(lambda_max(Y, Z), cfg.grid)
        # kkt_violation reads a VarModel; view the m regressors as m // rows lags
        sub = LagEmbedding(Y=Y, Z=Z, p=m // rows, names=emb.names[:rows])
        warm = None
        for i, (lam, A, converged, sweeps) in enumerate(lasso_path(Y, Z, lams, cfg)):
            ref, ref_sweeps, ref_converged, _ = _cd_solve(
                Y, Z, lam, cfg.tol, cfg.max_sweeps, warm
            )
            warm = ref
            assert lam == lams[i]
            assert (converged, sweeps) == (ref_converged, ref_sweeps)
            assert np.max(np.abs(A - ref)) <= 1e-12
            np.testing.assert_array_equal(A == 0.0, ref == 0.0)
            model = VarModel(
                p=m // rows, names=sub.names, A=A, sigma_u=np.eye(rows), lam=lam
            )
            assert kkt_violation(model, sub) <= 100 * cfg.tol

    @pytest.mark.parametrize("seed,k,p,t", [(0, 3, 1, 300), (1, 4, 2, 402), (2, 10, 2, 502),
                                            (3, 6, 4, 402)])
    @pytest.mark.parametrize("frac", [0.5, 0.1, 0.01, 0.0])
    def test_fixed_penalty_fit_matches_residual_form(self, seed, k, p, t, frac):
        emb, _, _ = embed_from_seed(seed, k=k, p=p, t=t, density=0.3, magnitude=0.25)
        cfg = LassoConfig(lam=frac * lambda_max(emb.Y, emb.Z), max_sweeps=5000)
        model = fit_lasso_var(emb, cfg)
        ref, ref_sweeps, ref_converged, ref_history = _cd_solve(
            emb.Y, emb.Z, cfg.lam, cfg.tol, cfg.max_sweeps
        )
        assert (model.converged, model.sweeps) == (ref_converged, ref_sweeps)
        np.testing.assert_allclose(model.objective_history, ref_history, rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(model.A - ref)) <= 1e-12
        np.testing.assert_array_equal(model.A == 0.0, ref == 0.0)

    @pytest.mark.parametrize("k,seed", [(1, 5), (4, 6), (10, 7), (12, 6)])
    def test_fgls_stage2_matches_residual_form(self, k, seed):
        # one stacked stage 2 for 8 path points, each point with its own penalty
        cfg = LassoConfig(grid=LassoGrid(n_points=8, ratio=1e-2))
        Y, Z, A1, lams = ar1_stage1_path(k, seed, cfg)
        A, rho, sweeps, converged, history = _fgls_refit([design(Y, Z, len(lams))], A1, lams, cfg)
        assert A.shape == A1.shape
        assert rho.shape == sweeps.shape == converged.shape == (len(lams), k)
        for i, lam in enumerate(lams):
            ref, ref_sweeps, ref_conv, ref_history = residual_stage2(Y, Z, A1[i], lam, cfg, rho[i])
            assert (list(sweeps[i]), list(converged[i])) == (ref_sweeps, ref_conv)
            assert len(history[i]) == len(ref_history)
            np.testing.assert_allclose(history[i], ref_history, rtol=1e-12, atol=1e-12)
            assert np.max(np.abs(A[i] - ref)) <= 1e-12
            np.testing.assert_array_equal(A[i] == 0.0, ref == 0.0)

    def test_fgls_stage2_capped_row_leaves_the_others_unchanged(self):
        # m = 24: the rows of the last three points are too dense for an exact
        # solve and sweep 27 to 44 times; every other row settles without a sweep
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        Y, Z, A1, lams = ar1_stage1_path(12, 6, cfg)
        A, _, sweeps, converged, history = _fgls_refit([design(Y, Z, len(lams))], A1, lams, cfg)
        cap = int(sweeps.max()) - 1
        capped = replace(cfg, max_sweeps=cap)
        A_c, _, sweeps_c, converged_c, history_c = _fgls_refit([design(Y, Z, len(lams))], A1, lams,
                                                               capped)
        hit = sweeps > cap
        assert hit.any() and (~hit).any() and converged.all()
        np.testing.assert_array_equal(A_c[~hit], A[~hit])
        np.testing.assert_array_equal(sweeps_c, np.minimum(sweeps, cap))
        np.testing.assert_array_equal(converged_c, ~hit)
        for i in range(len(lams)):
            per_row = np.minimum(sweeps[i], cap)
            assert len(history_c[i]) == per_row.sum()
            kept = np.concatenate([history[i][s0: s0 + n] for s0, n in
                                   zip(np.cumsum(sweeps[i]) - sweeps[i], per_row)])
            np.testing.assert_array_equal(history_c[i], kept)

    @pytest.mark.parametrize("rho", [-0.99, 0.0, 0.5, 0.99])
    def test_whitened_moments_match_prais_winsten_products(self, rho):
        cfg = LassoConfig(grid=LassoGrid(n_points=2, ratio=1e-2))
        Y, Z, _, _ = ar1_stage1_path(4, 6, cfg)
        K, n = Y.shape
        rhos = np.array([[rho] * K, [rho, 0.3, -0.7, 0.9]])
        G, C, yy = _whitened_moments(_pw_basis(Y, Z), rhos)
        for r, (i, k) in enumerate(np.ndindex(rhos.shape)):
            Xw = prais_winsten(np.vstack([Y[k: k + 1], Z]), rhos[i, k])
            S = Xw @ Xw.T / n
            scale = np.abs(S).max()
            assert np.abs(G[r] - S[1:, 1:]).max() <= 1e-13 * scale
            assert np.abs(C[r] - S[0, 1:]).max() <= 1e-13 * scale
            assert abs(yy[r] - S[0, 0]) <= 1e-13 * scale

    @pytest.mark.parametrize("kw", [dict(lam=np.nan), dict(lam=np.inf), dict(lam=-0.1),
                                    dict(tol=np.inf), dict(tol=np.nan), dict(tol=0.0)])
    def test_config_rejects_non_finite_penalty_or_tolerance(self, kw):
        with pytest.raises(LassoError, match="must be finite and"):
            LassoConfig(**kw)

    def test_negative_penalty_rejected(self):
        G, C = np.eye(2), np.ones((2, 2))
        for lam in (-0.1, np.array([0.1, -0.1])):
            with pytest.raises(LassoError, match="lambda must be >= 0"):
                _cd_gram(G, C, 2.0, lam, 1e-8, 10, np.zeros((2, 2)))

    def test_objective_increase_raises_typed_error(self):
        _check_descent(2, 1.0, 1.0 + 1e-13)  # rounding-level rise is tolerated
        with pytest.raises(LassoError, match=r"sweep 7: 1\.0 -> 1\.5"):
            _check_descent(7, 1.0, 1.5)


def looped_path_moments(Y, Z, per_row):
    """``_path_moments``' C built by its former loops: one product Y @ Z[j] per column or,
    per row, one Y[r:r+1] @ Z[j] per entry."""
    R, n = Y.shape
    rows = [slice(r, r + 1) for r in range(R)] if per_row else [slice(None)]
    C = np.empty((R, Z.shape[0]))
    for j in range(Z.shape[0]):
        for rs in rows:
            C[rs, j] = (Y[rs] @ Z[j]) / n
    return C


# (rows, regressors, samples): a lone row, bench shapes and the paper-scale network's
# selection design (K = 50, p = 1: 50 rows on 49 regressors, T = 1460)
STACKED_SHAPES = [(1, 3, 50), (4, 8, 638), (10, 20, 998), (19, 16, 9998), (50, 49, 1459)]


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("shape", STACKED_SHAPES)
def test_path_moments_stacked_product_has_the_loops_bits(shape, per_row):
    R, m, n = shape
    D = np.random.default_rng(R * m).standard_normal((R + m, n))
    Y, Z = D[:R], D[R:]
    G, C, yy = _path_moments(Y, Z, per_row)
    assert_bitwise(C, looped_path_moments(Y, Z, per_row))
    assert C.flags.c_contiguous
    assert_bitwise(G, Z @ Z.T / n)
    assert yy == float(np.sum(Y * Y)) / n


def stacked_paths(seeds, rows, k, p, per_row, cfg):
    """g = len(seeds) panels of different lengths with the same shape: their
    (Y, Z), stacked ``_path_moments`` and grid (shared, from the first panel,
    or (n_points, g, rows) per row)."""
    data = []
    for i, seed in enumerate(seeds):
        emb, _, _ = embed_from_seed(seed, k=k, p=p, t=300 + 97 * i, density=0.3, magnitude=0.25)
        data.append((emb.Y[:rows], emb.Z))
    G, C, yy = (np.stack(parts) for parts in zip(*(_path_moments(Y, Z, per_row) for Y, Z in data)))
    if per_row:
        lams = np.stack([np.column_stack([lambda_grid(lambda_max(Y[r: r + 1], Z), cfg.grid)
                                          for r in range(rows)]) for Y, Z in data], axis=1)
    else:
        lams = lambda_grid(lambda_max(*data[0]), cfg.grid)
    return data, (G, C, yy), lams


def assert_bitwise(a, b):
    """Equal to the bit, signed zeros included."""
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def compactions(sweeps):
    """How often one ``_cd_gram`` call whose groups took these sweeps moves its live
    Grams to the front of G: after each sweep at which half its working set has stopped.
    Of a solve's sweeps, the groups that took more than one, which all swept."""
    sweeps = np.asarray(sweeps)
    sweeps = sweeps[sweeps > 1]
    n, count = len(sweeps), 0
    for sweep in range(1, int(sweeps.max())):
        live = np.count_nonzero(sweeps > sweep)
        if 2 * live <= n:
            n, count = live, count + 1
    return count


class TestLockstepPaths:
    """``lasso_paths`` runs independent paths in lockstep; each must be the
    path it is alone, bit for bit. With m <= 20 every point settles before any
    sweep; with m = 24 the dense points are beyond admission and sweep, so
    groups stop apart."""

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("rows,k,p", [(1, 3, 2), (4, 4, 2), (10, 10, 2),
                                          (1, 6, 4), (4, 6, 4), (10, 12, 2)])
    def test_each_group_equals_its_solo_path(self, rows, k, p, per_row):
        cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))
        data, (G, C, yy), lams = stacked_paths([11, 12, 13, 14], rows, k, p, per_row, cfg)
        stacked = list(lasso_paths(G.copy(), C, yy, lams, cfg))  # G may be overwritten
        sweeps = np.array([s for _, _, _, s, _ in stacked])
        if k * p <= 20:
            assert (sweeps == 1).all()
        else:
            assert (sweeps.min(axis=1) < sweeps.max(axis=1)).any()  # groups stop apart
        for i, (Y, Z) in enumerate(data):
            grid = lams[:, i] if per_row else lams
            solo = list(lasso_paths(G[i: i + 1].copy(), C[i: i + 1], yy[i: i + 1],
                                    lams[:, i: i + 1] if per_row else lams, cfg))
            for point, one, alone in zip(stacked, solo, lasso_path(Y, Z, grid, cfg)):
                lam, A, converged, sweeps_i, history = point
                assert_bitwise(A[i], one[1][0])
                assert_bitwise(A[i], alone[1])
                assert np.array_equal(lam[i] if per_row else lam, alone[0])
                assert converged[i] == one[2][0] == alone[2]
                assert sweeps_i[i] == one[3][0] == alone[3]
                assert history[i] == one[4][0] and len(history[i]) == sweeps_i[i]

    @pytest.mark.parametrize("per_row", [False, True])
    def test_capped_group_leaves_the_others_unchanged(self, per_row):
        # the four paths peak at 20, 30, 28 and 50 sweeps (20, 30, 29 and 47 on
        # per-row grids), so the cap below binds the slowest group only
        cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))
        data, (G, C, yy), lams = stacked_paths([21, 22, 23, 24], 4, 6, 4, per_row, cfg)
        free = list(lasso_paths(G.copy(), C, yy, lams, cfg))
        peak = np.array([s for _, _, _, s, _ in free]).max(axis=0)
        capped = replace(cfg, max_sweeps=int(peak.max()) - 1)  # below the slowest groups only
        hit = peak > capped.max_sweeps
        assert hit.any() and not hit.all()
        capped_run = list(lasso_paths(G.copy(), C, yy, lams, capped))
        for point, point_c in zip(free, capped_run):
            (_, A, conv, sweeps, hist), (_, A_c, conv_c, sweeps_c, hist_c) = point, point_c
            assert conv.all() and conv_c[~hit].all()
            assert_bitwise(A[~hit], A_c[~hit])
            np.testing.assert_array_equal(sweeps_c[~hit], sweeps[~hit])
            assert [hist[i] for i in np.flatnonzero(~hit)] == \
                [hist_c[i] for i in np.flatnonzero(~hit)]
            assert (sweeps_c[hit] <= capped.max_sweeps).all()
        # each capped group is its own solo path under the cap
        for i in np.flatnonzero(hit):
            solo = list(lasso_path(*data[i], lams[:, i] if per_row else lams, capped))
            assert not all(conv for _, _, conv, _ in solo)
            for (_, A_c, conv_c, sweeps_c, _), (_, A_s, conv_s, sweeps_s) in zip(capped_run, solo):
                assert_bitwise(A_c[i], A_s)
                assert (conv_c[i], sweeps_c[i]) == (conv_s, sweeps_s)

    def test_gram_stack_is_overwritten_only_after_the_last_penalty(self):
        # _cd_gram compacts the Grams it sweeps in place: before the last penalty,
        # lasso_paths sweeps on copies, so G reads as it came at every yield but the
        # last; at the last penalty it sweeps on G itself, which it then overwrites
        cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))
        _, (G, C, yy), lams = stacked_paths([21, 22, 23, 24], 4, 6, 4, False, cfg)
        before, points = G.copy(), []
        for point in lasso_paths(G, C, yy, lams, cfg):
            assert len(points) == len(lams) - 1 or G.tobytes() == before.tobytes()
            points.append(point)
        assert list(points[-1][3]) == [15, 25, 24, 40]  # the last two move to the front
        assert G.tobytes() != before.tobytes()
        for point, again in zip(points, lasso_paths(before.copy(), C, yy, lams, cfg)):
            assert_bitwise(point[1], again[1])
            assert point[4] == again[4]

    def test_fixed_penalty_fit_is_a_lone_group(self):
        emb, _, _ = embed_from_seed(3, k=4, p=2, t=400, density=0.3, magnitude=0.25)
        cfg = LassoConfig(lam=0.05 * lambda_max(emb.Y, emb.Z))
        model = fit_lasso_var(emb, cfg)
        # the same problem twice in one stacked call: each copy equals the fit
        n = emb.n_cols
        G, C, yy = emb.Z @ emb.Z.T / n, emb.Y @ emb.Z.T / n, float(np.sum(emb.Y * emb.Y)) / n
        _, A, converged, sweeps, history = next(lasso_paths(
            np.stack([G, G]), np.stack([C, C]), np.array([yy, yy]), [cfg.lam], cfg))
        for i in range(2):
            assert_bitwise(A[i], model.A)
            assert (sweeps[i], converged[i]) == (model.sweeps, model.converged)
            assert tuple(history[i]) == model.objective_history


def sequential_paths(G, C, yy, lams, cfg):
    """The walk of ``lasso_paths`` one penalty at a time, its blocks' reference: at each
    penalty, the exact stage, ``_settle``, on each group admitted at its warm start's
    counts, then ``_cd_gram``'s sweeps from the warm start for the rest, each group on the
    first pattern ``_predict`` extrapolates from the
    group's last two path points, counting back to its last swept point at most. Every
    product and objective is formed here afresh. Yields per penalty (A, converged, sweeps,
    histories, settled by an exact solve)."""
    lams, g = np.asarray(lams, dtype=float), len(C)
    pens = [lam if lam.ndim else np.full((g, 1), lam) for lam in lams]
    A, before = np.zeros(C.shape), [None] * g  # the path point before each warm start
    for j, pen in enumerate(pens):
        adm, settled, f = np.flatnonzero(_admitted(A)[2]), np.zeros(g, dtype=bool), {}
        S, obj = np.empty((len(adm),) + C.shape[1:], dtype=np.int8), np.empty(len(adm))
        for k, i in enumerate(adm):
            l1, AG = pens[j - 1][i] if j else pen[i], A[i] @ G[i]
            A2, l2 = before[i] or (A[i], l1)
            t = np.divide(l1 - pen[i], l2 - l1, out=np.zeros(pen[i].shape), where=l2 != l1)
            S[k] = _predict(A[i], AG, A2, A2 @ G[i], C[i], t[:, None], pen[i][:, None] / 2.0)
            obj[k] = _objective(A[i][None], AG[None], C[i:i + 1], yy[i:i + 1], pen[i][None])[0]
        new = A.copy()
        if len(adm):
            W = A[adm]
            ok, objectives, _ = _settle(G, C, yy, pen[adm], W, S, obj, adm,
                                        np.ones(len(adm), dtype=bool), np.zeros(W.shape), pen[adm])
            new[adm[ok]], settled[adm[ok]] = W[ok], True
            f = dict(zip(adm[ok].tolist(), objectives[ok].tolist()))
        sweeps, converged = np.ones(g, dtype=int), settled.copy()
        history = [[f[i]] if settled[i] else [] for i in range(g)]
        sw = np.flatnonzero(~settled)
        if len(sw):
            W = A[sw]
            out = _cd_gram(G[sw], C[sw], yy[sw], pen[sw], cfg.tol, cfg.max_sweeps, W)
            new[sw], sweeps[sw], converged[sw] = W, out[0], out[1]
            for k, i in enumerate(sw.tolist()):
                history[i] = out[2][k]
        before = [(A[i], pens[j - 1][i] if j else pen[i]) if settled[i] else None for i in range(g)]
        A = new
        yield A.copy(), converged, sweeps, history, settled


class TestBlocks:
    """``lasso_paths`` settles several upcoming penalties of each group in one exact-stage
    call and keeps a speculative item only as a prefix, by the test a sequential solve
    makes; every point must equal the one-penalty-at-a-time walk (``sequential_paths``) bit
    for bit, sweeps, convergence and histories included."""

    CASES = {
        # a per-row-grid Granger batch: five designs of 4 rows on 8 regressors
        "granger": ([11, 12, 13, 14, 15], 4, 4, 2, True),
        # a shared-grid CV batch: three folds of 10 rows on 20 regressors
        "cv": ([21, 22, 23], 10, 10, 2, False),
        # m = 24: dense points are beyond admission, so groups sweep while others settle
        "sweeps": ([31, 32, 33, 34], 4, 6, 4, False),
    }

    def test_blocks_equal_the_sequential_walk(self, monkeypatch):
        cfg = LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-3))
        rejected, settle = {}, _settle

        def recorded(*args):
            ok, f, ahead = settle(*args)
            rejected[case] = rejected.get(case, 0) + int(np.count_nonzero(~args[8] & ~ok))
            return ok, f, ahead

        monkeypatch.setattr("sparsevar.lasso._settle", recorded)
        for case, (seeds, rows, k, p, per_row) in self.CASES.items():
            _, (G, C, yy), lams = stacked_paths(seeds, rows, k, p, per_row, cfg)
            blocks = list(lasso_paths(G.copy(), C, yy, lams, cfg))  # G may be overwritten
            walk = list(sequential_paths(G, C, yy, lams, cfg))
            mixed = False
            for (lam, A, converged, sweeps, history), (A_s, conv_s, sweeps_s, hist_s, settled) \
                    in zip(blocks, walk, strict=True):
                assert_bitwise(A, A_s)
                assert_bitwise(converged, conv_s)
                np.testing.assert_array_equal(sweeps, sweeps_s)
                assert history == hist_s
                mixed |= bool(settled.any() and not settled.all())
            assert mixed == (case == "sweeps")
        assert rejected["granger"] + rejected["cv"] + rejected["sweeps"] > 0

    def test_run_ahead_is_bounded(self):
        # group 0's responses are scaled up 100-fold, so it is dense at every point of the
        # shared grid, never admitted, and sweeps one penalty a round while the others
        # settle blocks; its lag bounds what waits to be yielded, whatever the grid's length
        import tracemalloc

        peaks = []
        for n_points in (30, 120):
            cfg = LassoConfig(tol=1e-5, grid=LassoGrid(n_points=n_points, ratio=1e-3))
            _, (G, C, yy), lams = stacked_paths([41, 42, 43, 44], 12, 12, 2, False, cfg)
            C[0], yy[0] = 100.0 * C[0], 1e4 * yy[0]
            tracemalloc.start()
            try:
                sweeps = [s[0] for _, _, _, s, _ in lasso_paths(G, C, yy, lams, cfg)]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert min(sweeps) > 1  # group 0 swept every point
        assert peaks[1] <= 1.1 * peaks[0]


def ar1_panels(seeds, k=4):
    """AR(1)-error simulate() panels of the same shape and different lengths."""
    return [simulate(SyntheticSpec(
        k=k, p=2, t=240 + 53 * i, recipe=SparseRecipe(density=0.3, magnitude=0.25, seed=seed),
        error="ar1", rho=0.5, seed=seed))[0] for i, seed in enumerate(seeds)]


class TestLockstepFits:
    """``fit_panel_vars`` fits independent panels in lockstep stacks (one
    ``lasso_paths`` group per panel, one ``_fgls_refit`` for every stacked panel's
    equations); each must be the fit it is alone, bit for bit."""

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_each_panel_equals_its_solo_fit(self, estimator):
        panels = ar1_panels([31, 32, 33, 34], k=12)  # m = 24: dense fits sweep
        cfg = LassoConfig(lam=0.12, tol=1e-10)
        stacked = fit_panel_vars(panels, 2, cfg, estimator)
        assert len({len(m.objective_history) for m in stacked}) > 1  # panels stop apart
        for pnl, model in zip(panels, stacked):
            solo = fit_panel_var(pnl, 2, cfg, estimator)
            for a, b in [(model.A, solo.A), (model.sigma_u, solo.sigma_u),
                         (model.stats.means, solo.stats.means), (model.stats.sds, solo.stats.sds)]:
                assert_bitwise(a, b)
            assert_bitwise(np.asarray(model.rho, dtype=float), np.asarray(solo.rho, dtype=float))
            assert (model.sweeps, model.converged, model.objective_history) == \
                (solo.sweeps, solo.converged, solo.objective_history)
            assert (model.lam, model.estimator, model.names) == \
                (solo.lam, solo.estimator, solo.names)

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_each_panel_is_standardized_once(self, monkeypatch, estimator):
        calls = []
        monkeypatch.setattr(lasso_mod, "standardize",
                            lambda pnl: calls.append(pnl) or standardize(pnl))
        panels = ar1_panels([31, 32, 33])
        fit_panel_vars(panels, 2, LassoConfig(lam=0.12), estimator)
        assert [id(pnl) for pnl in calls] == [id(pnl) for pnl in panels]

    def test_stacks_are_split_to_bound_fgls_gram_memory(self, monkeypatch):
        # K = 64, p = 1: a panel's stage-2 Grams take 64^3 floats, so a stack holds 4 panels;
        # 6 origins make stacks of 4 and 2, and each origin, dense enough to sweep, is still its
        # solo fit
        pnl = simulate(SyntheticSpec(
            k=64, p=1, t=160, recipe=SparseRecipe(density=0.02, magnitude=0.3, seed=41),
            error="ar1", rho=0.5, seed=41))[0]
        panels, cfg = [pnl.slice_rows(0, t) for t in range(155, 161)], LassoConfig(lam=0.1)
        sizes, stack = [], lasso_mod._fit_stack

        def counted(items, *args):
            items = list(items)
            sizes.append(len(items))
            return stack(items, *args)

        monkeypatch.setattr(lasso_mod, "_fit_stack", counted)
        stacked = fit_panel_vars(panels, 1, cfg, "fgls-lasso")
        assert sizes == [4, 2]
        for panel, model in zip(panels, stacked):
            solo = fit_panel_var(panel, 1, cfg, "fgls-lasso")
            for a, b in [(model.A, solo.A), (model.sigma_u, solo.sigma_u), (model.rho, solo.rho)]:
                assert_bitwise(a, b)
            assert (model.sweeps, model.objective_history) == (solo.sweeps, solo.objective_history)

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_each_origin_is_lag_embedded_once(self, monkeypatch, estimator):
        # the stack reads each item's samples once: its moments, Y Y^T / N for sigma_u
        # and, for FGLS, its Prais-Winsten basis come from one embedding
        calls = []
        monkeypatch.setattr(lasso_mod, "lag_embed",
                            lambda pnl, p: calls.append(pnl.n_obs) or lag_embed(pnl, p))
        pnl = ar1_panels([31])[0]
        fit_panel_vars([pnl.slice_rows(0, t) for t in (200, 220, 240)], 2,
                       LassoConfig(lam=0.12), estimator)
        assert calls == [200, 220, 240]

    def test_fgls_stage2_of_several_designs_equals_one_call_each(self):
        # three designs' whole stage-1 paths in one lasso_paths call of one-row groups;
        # its dense rows (m = 24) sweep and stop apart, so the live Grams move to
        # the front of G more than once
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        designs = [ar1_stage1_path(12, seed, cfg) for seed in (6, 7, 8)]
        A1 = np.concatenate([d[2] for d in designs])
        lams = np.concatenate([d[3] for d in designs])
        A, rho, sweeps, converged, history = _fgls_refit(
            (design(Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)
        assert compactions(sweeps.ravel()) >= 2
        start = 0
        for Y, Z, A1_d, lams_d in designs:
            one = _fgls_refit([design(Y, Z, len(lams_d))], A1_d, lams_d, cfg)
            pts = slice(start, start + len(lams_d))
            for stacked, alone in zip((A[pts], rho[pts], sweeps[pts], converged[pts]), one[:4]):
                assert_bitwise(stacked, alone)
            assert history[pts] == one[4]
            start += len(lams_d)

    def test_fgls_stage2_in_gram_bounded_sets_of_whole_designs(self, monkeypatch):
        # K = 24, p = 2: a point's stage-2 Grams take 24 * 48^2 floats, so a set within
        # _GRAM_FLOATS (8 MB) holds 18 points. Designs of 10, 6, 8, 15, 0 and 3 points make
        # sets of 10 + 6, 8 and 15 + 0 + 3; within exactly 16 points' Grams, of 10 + 6, 8,
        # 15 + 0 and 3. No design is split, and each design's rows are the ones it gets in a
        # call of its own, bit for bit
        cfg = LassoConfig(grid=LassoGrid(n_points=15, ratio=0.03))
        stage1 = [ar1_stage1_path(24, seed, cfg) for seed in (11, 12, 13)]
        counts = [10, 6, 8, 15, 0, 3]
        designs = [(Y, Z, A1[-c:][:c], lams[-c:][:c])  # each path's last c points
                   for (Y, Z, A1, lams), c in zip(stage1 * 2, counts)]
        A1 = np.concatenate([d[2] for d in designs])
        lams = np.concatenate([d[3] for d in designs])
        K, m = A1.shape[1:]
        assert lasso_mod._GRAM_FLOATS // (K * m * m) == 18
        alone = [_fgls_refit([design(Y, Z, len(pl))], A1_d, pl, cfg) for Y, Z, A1_d, pl in designs]
        rows, paths = [], lasso_mod.lasso_paths

        def spy(G, *args):
            rows.append(len(G))
            return paths(G, *args)

        monkeypatch.setattr(lasso_mod, "lasso_paths", spy)
        for budget, sets in [(lasso_mod._GRAM_FLOATS, [16, 8, 18]),
                             (16 * K * m * m, [16, 8, 15, 3])]:
            monkeypatch.setattr(lasso_mod, "_GRAM_FLOATS", budget)
            rows.clear()
            A, rho, sweeps, converged, history = _fgls_refit(
                (design(Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)
            assert rows == [n * K for n in sets]
            assert set(np.cumsum(rows)) <= set(np.cumsum(counts) * K)  # sets end as designs do
            start = 0
            for c, one in zip(counts, alone):
                pts = slice(start, start + c)
                for stacked, solo in zip((A[pts], rho[pts], sweeps[pts], converged[pts]), one):
                    assert_bitwise(stacked, solo)
                assert history[pts] == one[4]
                start += c

    def test_fgls_stage2_of_designs_without_points_is_empty(self):
        cfg = LassoConfig(grid=LassoGrid(n_points=3, ratio=1e-2))
        Y, Z, A1, lams = ar1_stage1_path(2, 5, cfg)
        A, rho, sweeps, converged, history = _fgls_refit(
            [design(Y, Z, 0), design(Y, Z, 0)], A1[:0], lams[:0], cfg)
        assert A.shape == (0,) + A1.shape[1:] and rho.shape == sweeps.shape == (0, 2)
        assert converged.shape == (0, 2) and history == []

    def test_fgls_stage2_peak_memory_is_its_gram_stack(self):
        # stage 2 holds one (m, m) Gram per (point, equation) row and compacts it in
        # place: no copy of the stack, so the traced peak stays near its size
        import tracemalloc

        cfg = LassoConfig(grid=LassoGrid(n_points=20, ratio=1e-3))
        pnl, _ = simulate(SyntheticSpec(
            k=12, p=2, t=600, recipe=SparseRecipe(density=0.2, magnitude=0.25, seed=9),
            error="ar1", rho=0.5, seed=9))
        emb = lag_embed(standardize(pnl)[0], 2)
        path = list(lasso_path(emb.Y, emb.Z, lambda_grid(lambda_max(emb.Y, emb.Z), cfg.grid), cfg))
        A1, lams = np.stack([A for _, A, _, _ in path]), np.array([lam for lam, *_ in path])
        P, K, m = A1.shape
        tracemalloc.start()
        try:
            _fgls_refit([design(emb.Y, emb.Z, P)], A1, lams, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (P * K * m * m * 8)

    def test_empty_stack_rejected(self):
        with pytest.raises(LassoError, match="0 items"):
            fit_panel_vars([], 2, LassoConfig(lam=0.1), "lasso")

    def test_fgls_designs_must_cover_every_point(self):
        cfg = LassoConfig(grid=LassoGrid(n_points=3, ratio=1e-2))
        Y, Z, A1, lams = ar1_stage1_path(2, 5, cfg)
        with pytest.raises(LassoError, match="cover 2 of 3"):
            _fgls_refit([design(Y, Z, 2)], A1, lams, cfg)


def sample_rho(Y, Z, A1):
    """Lag-1 autocorrelation of each point's centred stage-1 residuals, from the samples
    (0 where they have no variance), and their variance: the sample form of FGLS rho."""
    U = Y - A1 @ Z
    U -= U.mean(axis=2, keepdims=True)
    num, den = (U[..., 1:] * U[..., :-1]).sum(axis=2), (U * U).sum(axis=2)
    return np.divide(num, den, out=np.zeros(den.shape), where=den != 0.0), den / Y.shape[1]


def spiral_panel(sd, t=400):
    """A near-deterministic AR(1)-error panel: slowly spiralling dynamics from a random
    state, plus innovations of standard deviation sd."""
    c, s = 0.999 * math.cos(0.7), 0.999 * math.sin(0.7)
    return simulate(SyntheticSpec(
        k=3, p=1, t=t, coefficients=np.array([[c, -s, 0.0], [s, c, 0.0], [0.3, 0.0, 0.998]]),
        innovation_sd=sd, error="ar1", rho=0.5, seed=0,
        initial_state=np.random.default_rng(1).standard_normal((1, 3))))[0]


class TestMomentBasis:
    """FGLS rho and sigma_u come from moments, not from a pass over the samples: rho from
    each design's Prais-Winsten basis (``_pw_basis``, ``_ar1_rho``), sigma_u from G, C and
    Y Y^T / N. Each is checked against its sample form. rho's rounding error is about eps
    times ||y||^2 / ||u||^2, the inverse of the residuals' share of the response's sum of
    squares: on a fitted panel (share >= 0.3) its tolerance is 1e-14 absolute, and on a
    near-deterministic design 1e-14 ||y||^2 / ||u||^2."""

    @staticmethod
    def path_rho(pnl, p, n_points, ratio):
        emb = lag_embed(standardize(pnl)[0], p)
        cfg = LassoConfig(grid=LassoGrid(n_points=n_points, ratio=ratio), tol=1e-12,
                          max_sweeps=100_000)
        lams = lambda_grid(lambda_max(emb.Y, emb.Z), cfg.grid)
        A1 = np.stack([A for _, A, _, _ in lasso_path(emb.Y, emb.Z, lams, cfg)])
        rho = _ar1_rho(_pw_basis(emb.Y, emb.Z), emb.n_cols, A1)
        ref, var = sample_rho(emb.Y, emb.Z, A1)
        return rho, ref, var / (np.sum(emb.Y * emb.Y, axis=1) / emb.n_cols)

    # the bench forecast workload's panel (K = 4, p = 2, AR(1) errors; a fold's window of
    # 640 rows), and the paper's shape (K = 50, p = 1, n = 1339)
    @pytest.mark.parametrize("k,p,t,density,magnitude,n_points", [
        (4, 2, 640, 0.2, 0.25, 50), (50, 1, 1340, 0.05, 0.3, 10)])
    def test_rho_matches_sample_form(self, k, p, t, density, magnitude, n_points):
        pnl = simulate(SyntheticSpec(k=k, p=p, t=t, recipe=SparseRecipe(density, magnitude, seed=0),
                                     error="ar1", rho=0.5, seed=0))[0]
        rho, ref, share = self.path_rho(pnl, p, n_points, 1e-3)
        assert share.min() > 0.3 and (np.abs(ref) > 0.01).any()
        assert np.abs(rho - ref).max() <= 1e-14

    @pytest.mark.parametrize("sd", [1e-3, 1e-5, 1e-7])
    def test_rho_matches_sample_form_on_a_near_deterministic_design(self, sd):
        rho, ref, share = self.path_rho(spiral_panel(sd), 1, 8, 1e-7)
        assert share.min() < 1e-4  # the last points fit all but a sliver of the response
        assert (np.abs(rho - ref) * share).max() <= 1e-14

    def test_rho_is_zero_where_the_residuals_have_no_variance(self):
        # equation 0's response is zero and its stage-1 row too, so den = 0 in both forms;
        # in equation 1's basis, the mean is raised above the sum of squares, so den < 0
        Y, Z, A1, _ = ar1_stage1_path(2, 5, LassoConfig(grid=LassoGrid(n_points=3, ratio=1e-2)))
        Y = np.vstack([np.zeros(Y.shape[1]), Y[1]])
        A1[:, 0] = 0.0
        (M, v), n = _pw_basis(Y, Z), Y.shape[1]
        ref, var = sample_rho(Y, Z, A1)
        assert (var[:, 0] == 0.0).all() and (ref[:, 1] != 0.0).all()
        rho = _ar1_rho((M, v), n, A1)
        np.testing.assert_array_equal(rho[:, 0], 0.0)
        assert np.abs(rho[:, 1] - ref[:, 1]).max() <= 1e-14
        v = v.copy()
        v[0, 1] = 2.0 * np.sqrt(M[0, 1, 1]) + np.abs(A1[:, 1] @ v[0, 2:]).max()
        rho = _ar1_rho((M, v), n, A1)
        np.testing.assert_array_equal(rho, 0.0)

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    @pytest.mark.parametrize("seed,k,p", [(31, 4, 2), (32, 12, 2), (33, 6, 3)])
    def test_sigma_u_matches_sample_form(self, estimator, seed, k, p):
        pnl = ar1_panels([seed], k=k)[0]
        model = fit_panel_var(pnl, p, LassoConfig(lam=0.05), estimator)
        emb = lag_embed(standardize(pnl)[0], p)
        resid = emb.Y - model.A @ emb.Z
        ref = resid @ resid.T / emb.n_cols
        assert np.abs(model.sigma_u - (ref + ref.T) / 2).max() <= 1e-14
        assert_bitwise(model.sigma_u, model.sigma_u.T)

    def test_sigma_u_on_a_near_deterministic_design(self):
        # on the uncentred spiral, which a VAR without intercept fits up to innovations of
        # sd 1e-6, the moment form cancels the response's sum of squares down to the
        # residuals'; it is off by rounding of the response's scale, not of the residuals'
        emb = lag_embed(spiral_panel(1e-6), 1)
        model = fit_lasso_var(emb, LassoConfig(lam=0.0, tol=1e-12, max_sweeps=100_000),
                              estimator="ols")
        resid = emb.Y - model.A @ emb.Z
        ref, scale = resid @ resid.T / emb.n_cols, np.sum(emb.Y * emb.Y, axis=1) / emb.n_cols
        assert np.diagonal(ref).max() < 1e-9 * scale.min()
        assert np.abs(model.sigma_u - (ref + ref.T) / 2).max() <= 1e-14 * scale.max()


def solve_along(solver, moments, pens, tol, max_sweeps, A):
    """solver's warm-started solves from A at each penalty of pens, on fresh copies
    of the moments; per penalty (A, sweeps, converged, histories)."""
    out = []
    for pen in pens:
        sweeps, converged, history = solver(*(a.copy() for a in moments), pen, tol,
                                            max_sweeps, A)
        out.append((A.copy(), sweeps, converged, history))
    return out


class TestLeanStep:
    """``_cd_gram`` equals the sign-and-max step kept above (``_cd_gram_signmax``),
    on groups of several rows and on FGLS stage 2's one-row groups: coefficients
    ``==``-equal, sweeps, convergence flags and objective histories identical,
    and every zero coefficient +0.0. Called alone, each kernel sweeps every point
    from the last; in FGLS stage 2 (m = 24) the dense rows are beyond admission and
    sweep, the others settle without a sweep."""

    cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))

    def assert_same(self, moments, pens, max_sweeps):
        A0 = np.zeros(moments[1].shape)
        lean = solve_along(_cd_gram, moments, pens, self.cfg.tol, max_sweeps, A0.copy())
        ref = solve_along(_cd_gram_signmax, moments, pens, self.cfg.tol, max_sweeps, A0.copy())
        for (A, sweeps, conv, hist), (A_r, sweeps_r, conv_r, hist_r) in zip(lean, ref):
            assert np.array_equal(A, A_r)
            assert not np.signbit(A[A == 0]).any()
            np.testing.assert_array_equal(sweeps, sweeps_r)
            np.testing.assert_array_equal(conv, conv_r)
            assert hist == hist_r
        return lean

    @pytest.mark.parametrize("case", ["path", "lambda-zero", "zero-variance"])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_gram_equals_signmax_step(self, groups, per_row, case):
        _, (G, C, yy), lams = stacked_paths([11, 12, 13, 14][:groups], 4, 6, 4, per_row,
                                            self.cfg)
        pens = list(lams) if per_row else [np.full((groups, 1), lam) for lam in lams]
        if case == "lambda-zero":
            pens = [np.zeros_like(pens[0])]
        if case == "zero-variance":
            G[:, 1, :] = G[:, :, 1] = C[:, :, 1] = 0.0
        lean = self.assert_same((G, C, yy), pens, self.cfg.max_sweeps)
        assert all(conv.all() for _, _, conv, _ in lean)
        if case == "path":
            assert all((A == 0).any() for A, _, _, _ in lean[:3])
        if case == "zero-variance":
            assert all((A[..., 1] == 0).all() for A, _, _, _ in lean)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_gram_cap_that_stops_one_group(self, per_row):
        # the paths of TestLockstepPaths.test_capped_group_leaves_the_others_unchanged
        _, moments, lams = stacked_paths([21, 22, 23, 24], 4, 6, 4, per_row, self.cfg)
        pens = list(lams) if per_row else [np.full((4, 1), lam) for lam in lams]
        free = self.assert_same(moments, pens, self.cfg.max_sweeps)
        peak = np.array([sweeps for _, sweeps, _, _ in free]).max(axis=0)
        cap = int(peak.max()) - 1
        capped = self.assert_same(moments, pens, cap)
        hit = ~np.array([conv for _, _, conv, _ in capped]).all(axis=0)
        np.testing.assert_array_equal(hit, peak > cap)
        assert hit.any() and not hit.all()

    @pytest.mark.parametrize("case", ["path", "lambda-zero", "capped"])
    def test_rows_equal_signmax_step_on_ar1_panels(self, monkeypatch, case):
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        designs = [ar1_stage1_path(12, seed, cfg) for seed in (6, 7, 8)]
        A1 = np.concatenate([d[2] for d in designs])
        lams = np.concatenate([d[3] for d in designs]) * (case != "lambda-zero")
        if case == "capped":
            free = _fgls_refit((design(Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)
            cfg = replace(cfg, max_sweeps=int(np.median(free[2])))

        def refit():
            return _fgls_refit((design(Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)

        lean = refit()
        monkeypatch.setattr("sparsevar.lasso._cd_gram", _cd_gram_signmax)
        ref = refit()
        assert np.array_equal(lean[0], ref[0])
        assert not np.signbit(lean[0][lean[0] == 0]).any()
        for a, b in zip(lean[1:4], ref[1:4]):
            assert_bitwise(a, b)
        assert lean[4] == ref[4]
        assert lean[3].any() and (case == "capped") == (not lean[3].all())
        assert case == "capped" or compactions(lean[2].ravel()) >= 2
        if case == "path":
            assert (lean[0] == 0).any()

    def test_rows_zero_variance_regressor_stays_zero(self):
        # the last point's rows (m = 24), dense enough to sweep
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        Y, Z, A1, lams = ar1_stage1_path(12, 6, cfg)
        G, C, yy = _whitened_moments(_pw_basis(Y, Z), np.full((len(lams), 12), 0.5))
        G, C, yy = G[-8:], C[-8:, None], yy[-8:]
        G[:, 2, :] = G[:, :, 2] = C[..., 2] = 0.0
        A0 = A1.reshape(-1, 1, A1.shape[2])[-8:].copy()
        A0[..., 2] = 0.0
        outs = []
        for solver in (_cd_gram, _cd_gram_signmax):
            A = A0.copy()
            outs.append((A,) + solver(G.copy(), C, yy, np.repeat(lams, 12)[-8:, None], cfg.tol,
                                      cfg.max_sweeps, A))
        (A, sweeps, conv, hist), (A_r, sweeps_r, conv_r, hist_r) = outs
        assert (sweeps > 1).all() and np.array_equal(A, A_r) and (A[..., 2] == 0).all()
        assert not np.signbit(A[A == 0]).any()
        assert_bitwise(sweeps, sweeps_r)
        assert_bitwise(conv, conv_r)
        assert hist == hist_r


def moments_of(emb):
    """G (m, m), C (K, m) and yy of an embedding, as ``_fit_stack`` forms them."""
    n = emb.n_cols
    return emb.Z @ emb.Z.T / n, emb.Y @ emb.Z.T / n, float(np.sum(emb.Y * emb.Y)) / n


class TestExactFinish:
    """``lasso._finish``, the solver's only exact solve, tried by ``lasso._settle``
    on the warm start's predicted pattern before any sweep, for every group of at
    most 20 unknowns per row: it stops a group at the exact optimum of that
    pattern when the KKT check holds, reads no signs in a row at lambda = 0, and
    rejects a group whose system is singular without touching the others."""

    # m = k p from 3 to 20: a solve of at most 20 unknowns is always admitted, and
    # at lambda = 0 any sign is kept, so an OLS fit from zero settles in one exact
    # solve, every coefficient active
    @pytest.mark.parametrize("seed,k,p", [(0, 3, 1), (1, 4, 2), (2, 5, 1), (3, 3, 3),
                                          (4, 5, 2), (5, 4, 4), (6, 10, 2), (2, 6, 3)])
    def test_ols_fit_matches_least_squares(self, seed, k, p):
        emb, _, _ = embed_from_seed(seed, k=k, p=p, t=400)
        model = fit_lasso_var(emb, LassoConfig(lam=0.0))
        A_ols = np.linalg.lstsq(emb.Z.T, emb.Y.T, rcond=None)[0].T
        assert (model.converged, model.sweeps) == (True, 1)
        assert np.max(np.abs(model.A - A_ols)) <= 1e-12

    @pytest.mark.parametrize("seed,k,p", [(0, 3, 1), (1, 4, 2), (4, 4, 2), (5, 6, 1)])
    def test_every_converged_fit_is_exact(self, seed, k, p):
        emb, _, _ = embed_from_seed(seed, k=k, p=p, t=300, density=0.3, magnitude=0.25)
        lams = lambda_grid(lambda_max(emb.Y, emb.Z), LassoGrid(n_points=20, ratio=1e-3))
        fits = [(lam, A, converged) for lam, A, converged, _ in
                lasso_path(emb.Y, emb.Z, lams, LassoConfig())]
        fits += [(f * lams[0], fit_lasso_var(emb, LassoConfig(lam=f * lams[0])).A, True)
                 for f in (0.3, 0.05, 0.0)]
        for lam, A, converged in fits:
            model = VarModel(p=p, names=emb.names, A=A, sigma_u=np.eye(k), lam=lam)
            assert converged and kkt_violation(model, emb) <= 1e-12

    def test_collinear_group_leaves_the_others_unchanged(self, monkeypatch):
        # an exactly duplicated regressor makes the OLS active-set system singular:
        # that group's batched solve raises and is redone one system at a time,
        # while every regular group of the batch keeps its solo bits
        embs = [embed_from_seed(seed, k=3, p=2, t=300 + 40 * seed)[0] for seed in (7, 8, 9)]
        dup = embed_from_seed(10, k=3, p=2, t=300)[0]
        Z = dup.Z.copy()
        Z[5] = Z[0]
        embs.insert(1, LagEmbedding(Y=dup.Y, Z=Z, p=2, names=dup.names))
        G, C, yy = (np.stack(parts) for parts in zip(*map(moments_of, embs)))
        G[1][:, 5], C[1][:, 5] = G[1][:, 0], C[1][:, 0]  # exact copies, whatever gemm rounds
        G[1][5] = G[1][0]
        raised = []
        solve = np.linalg.solve

        def counted(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(np.shape(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", counted)
        _, A, converged, sweeps, history = next(lasso_paths(G.copy(), C, yy, [0.0], LassoConfig()))
        # a batched solve of several groups raised, then the collinear rows one by one
        assert any(len(shape) == 4 and shape[0] > 1 for shape in raised) and (6, 6) in raised
        for i in range(4):
            _, A_i, *solo = next(lasso_paths(G[i:i + 1].copy(), C[i:i + 1], yy[i:i + 1], [0.0],
                                             LassoConfig()))
            assert_bitwise(A[i], A_i[0])
            assert (converged[i], sweeps[i], history[i]) == (solo[0][0], solo[1][0], solo[2][0])
        regular = [0, 2, 3]
        assert converged.all() and (sweeps[regular] < sweeps[1]).all()


    def test_chunk_peak_memory_is_near_its_gather(self):
        # one chunk (one group of 200 rows, 20 of m = 24 coefficients active per
        # row): its gathered systems M take 640 KB; the gather forms no index of
        # M's size beside it, so the traced peak stays near M
        import tracemalloc

        rng = np.random.default_rng(0)
        R, m, s = 200, 24, 20
        Z = rng.standard_normal((m, 300))
        G, C = (Z @ Z.T / 300)[None], rng.standard_normal((1, R, m))
        W = rng.standard_normal((1, R, m))
        W[..., s:] = 0.0
        S, WG = np.sign(W).astype(np.int8), np.empty(W.shape)
        tracemalloc.start()
        try:
            _finish(G, C, np.array([10.0]), np.array([[0.01]]), W, np.array([np.inf]),
                    np.ones(1, dtype=bool), S, np.zeros(1, dtype=int), WG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (R * s * s * 8)


class TestSettle:
    """``lasso._settle`` in a one-point ``lasso_paths`` call: exact solves from the warm
    start before any sweep."""

    def test_mixed_batch_each_group_equals_its_solo_run(self):
        # four m = 24 groups, each at its own penalty: three settle before any
        # sweep; the fourth, at 1e-3 lambda_max, is too dense for an exact solve
        # (24^3 > 20^3) and sweeps. Then the next penalty of each, from there
        embs = [embed_from_seed(seed, k=6, p=4, t=300 + 40 * i, density=0.3, magnitude=0.25)[0]
                for i, seed in enumerate((40, 41, 42, 43))]
        G, C, yy = (np.stack(parts) for parts in zip(*map(moments_of, embs)))
        top = np.array([[f * lambda_max(e.Y, e.Z)] for e, f in zip(embs, (0.5, 0.3, 1e-3, 0.2))])
        settles, cfg = [True, True, False, True], LassoConfig()
        A0 = np.zeros(C.shape)
        for lam in (top, 0.8 * top):  # one penalty per group: a (1, 4, 1) grid
            assert list(settle_at(G, C, yy, lam, A0.copy())[0]) == settles
            _, A, converged, sweeps, history = next(lasso_paths(G.copy(), C, yy, lam[None], cfg,
                                                                A0))
            assert converged.all() and list(sweeps == 1) == settles
            for i in range(4):
                _, A_i, *solo = next(lasso_paths(G[i:i + 1].copy(), C[i:i + 1], yy[i:i + 1],
                                                 lam[None, i:i + 1], cfg, A0[i:i + 1]))
                assert_bitwise(A[i], A_i[0])
                assert (converged[i], sweeps[i], history[i]) == (solo[0][0], solo[1][0], solo[2][0])
                assert len(history[i]) == sweeps[i]
            A0 = A


def fixed_penalty_fits(cfg):
    """Fixed-penalty fits at 10 nested origins of an AR(1)-error panel, m = 24: the lasso's
    (3 of 10 sweep, the rest settle), FGLS's (stage 2's rows settle or sweep) and OLS's (too
    dense to settle: every fit sweeps). One list of models per estimator."""
    pnl = simulate(SyntheticSpec(
        k=12, p=2, t=400, recipe=SparseRecipe(density=0.2, magnitude=0.25, seed=19),
        error="ar1", rho=0.5, seed=19))[0]
    origins = [pnl.slice_rows(0, t) for t in range(310, 401, 10)]
    return [fit_panel_vars(origins, 2, replace(cfg, lam=lam), est)
            for est, lam in (("lasso", 0.2), ("fgls-lasso", 0.03), ("ols", 0.0))]


SCENARIOS = {
    # the seeded K = 5 network on the bench grid: 5 causes' BIC paths, m = 8
    "granger": lambda cfg: granger_network(simulate(SyntheticSpec(
        k=5, p=2, t=600, recipe=SparseRecipe(density=0.2, magnitude=0.25, seed=17), seed=17))[0],
        2, cfg=cfg),
    # a 3-fold CV on the bench grid, K = 10, m = 20
    "cv": lambda cfg: select_lambda(simulate(SyntheticSpec(
        k=10, p=2, t=1000, recipe=SparseRecipe(density=0.2, magnitude=0.25, seed=18), seed=18))[0],
        2, cfg, WalkForwardPlan(n_splits=3, test_size=50, min_train=700)),
    # the forecast origins' fixed-penalty fits (lasso, FGLS and OLS), m = 24
    "fits": fixed_penalty_fits,
}


class TestPinnedOutputs:
    """Each of the SCENARIOS' path coefficients (every point of every path, in
    order) and outputs (the network's p-values; the CV loss table, grid and
    lambda*), pinned bitwise as sha256 digests recorded before the solver tried
    exact solves from the warm start, which must not move them. Recorded with
    numpy 2.4 on OpenBLAS 0.3.31 (x86-64); a BLAS that rounds its products
    otherwise moves the digests with no fault in the solver. The cv output
    digest was re-recorded when ``cv._fold_losses`` moved from per-point
    forecasts to a thin QR of each validation design: 71 of the 150 losses
    moved, by at most 5.3e-15 absolute (3.6e-16 relative); the grid, lambda*
    and the coefficient digest did not move. It was re-recorded again when the
    projection of the actuals on that QR became one product per series, whose
    bytes do not depend on the BLAS thread count: 51 of the 150 losses moved, by
    at most 5.3e-15 absolute (4.3e-16 relative); the grid, lambda* and the
    coefficient digest did not move. The fits digest, of every fixed-penalty model's
    A, sigma_u, rho, sweeps and history, was recorded while those fits and FGLS stage 2
    still made an exact stage of their own, before they became one-point paths. It was
    re-recorded when sigma_u came from the moments and FGLS rho from each design's
    Prais-Winsten basis, not from the samples: sigma_u moved by at most 2.1e-15 absolute
    (3.0e-11 relative, on an entry of 3e-6), rho by 2.4e-15 (3.9e-14), FGLS A by 1.8e-15
    (1.6e-12) and its history by 5.0e-16 (1.0e-15); the lasso and OLS A, every history but
    FGLS's, and every sweep count did not move."""

    cfg = LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-3))
    PINS = {
        "granger": ("f0dcf1b33932e0f100314204e10497bef362395fc9cd26b2c7d9d0b7e725464b",
                    "daf7b3aa73c87b4583fb8cfe7bacd6abba64e1e099326178da38ec48ae3f4b84"),
        "cv": ("23f28a98921a47c6690ab0d3c594386d1da1cec0d80714717a97c83678787b5b",
               "95224aeae54afd2b0f69afadd0ce6d648b08438fbad5670e954b4b89069d54c8"),
        "fits": "9002e2ac1b936c50d9f5e0974c229f3095cf4e72dd92b65ad94402dd5f6a3bda",
    }

    @pytest.mark.parametrize("scenario", ["granger", "cv"])
    def test_coefficients_and_outputs(self, monkeypatch, scenario):
        coefficients = hashlib.sha256()

        def recorded(*args):
            for point in lasso_paths(*args):
                coefficients.update(point[1].tobytes())
                yield point

        monkeypatch.setattr(f"sparsevar.{scenario}.lasso_paths", recorded)  # the module's path runs
        out = SCENARIOS[scenario](self.cfg)
        if scenario == "granger":
            outputs = out.p_matrix.tobytes()
        else:
            lam, report = out
            outputs = report.losses.tobytes() + report.lams.tobytes() + np.float64(lam).tobytes()
        assert (coefficients.hexdigest(), hashlib.sha256(outputs).hexdigest()) == self.PINS[scenario]

    def test_fixed_penalty_fits(self):
        # every model's A, sigma_u, rho, sweeps and history in one digest
        digest = hashlib.sha256()
        for models in SCENARIOS["fits"](self.cfg):
            for model in models:
                for part in (model.A, model.sigma_u, [] if model.rho is None else model.rho,
                             [model.sweeps], model.objective_history):
                    digest.update(np.asarray(part, dtype=float).tobytes())
        assert digest.hexdigest() == self.PINS["fits"]


class TestSweepCounts:
    """Deterministic solver work on the seeded SCENARIOS on the bench grid: coordinate
    group-sweeps (each ``_cd_gram`` call's sweeps summed over its groups; every group of a
    ``_cd_gram`` call sweeps, since ``lasso_paths`` makes the exact stage in its own
    blocks) and exact-solve batches (``_finish`` calls, all from ``_settle``). On the paths
    neither may exceed the count measured with blocks of upcoming penalties settled in one
    ``_settle`` call; on the fixed-penalty fits, the count measured when they had an exact
    stage of their own (its swept groups' sweeps). A change that makes the solver sweep or
    solve more, such as one exact-stage call per penalty, fails."""

    cfg = LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-3))

    def work(self, monkeypatch, scenario) -> tuple[int, int]:
        """(coordinate group-sweeps, exact-solve batches) of the scenario."""
        counts, running = {"_cd_gram": 0, "_finish": 0}, []

        def counted(name, fn, count):
            def call(*args):
                assert running == []  # no exact solve inside a sweep: _cd_gram only sweeps
                running.append(name)
                out = fn(*args)
                running.pop()
                counts[name] += count(out)
                return out
            return call

        for name, fn, count in [("_cd_gram", _cd_gram, lambda out: int(out[0].sum())),
                                ("_finish", _finish, lambda out: 1)]:
            monkeypatch.setattr(f"sparsevar.lasso.{name}", counted(name, fn, count))
        SCENARIOS[scenario](self.cfg)
        return counts["_cd_gram"], counts["_finish"]

    def test_granger_network_bic_paths(self, monkeypatch):
        coordinate_sweeps, exact_solve_batches = self.work(monkeypatch, "granger")
        assert coordinate_sweeps <= 0 and exact_solve_batches <= 16

    def test_three_fold_cv_paths(self, monkeypatch):
        coordinate_sweeps, exact_solve_batches = self.work(monkeypatch, "cv")
        assert coordinate_sweeps <= 0 and exact_solve_batches <= 37

    def test_fixed_penalty_fits(self, monkeypatch):
        coordinate_sweeps, exact_solve_batches = self.work(monkeypatch, "fits")
        assert coordinate_sweeps <= 1567 and exact_solve_batches <= 16


class TestKkt:
    def test_converged_fit_small_violation(self):
        for seed in range(5):
            emb, _, _ = embed_from_seed(seed, k=4, p=2, t=200)
            cfg = LassoConfig(lam=0.05, tol=1e-8, max_sweeps=5000)
            model = fit_lasso_var(emb, cfg)
            assert model.converged
            assert kkt_violation(model, emb) <= 1e-6
            assert kkt_violation(model, emb) <= 100 * cfg.tol

    def test_perturbed_solution_violates(self):
        emb, _, _ = embed_from_seed(5, k=3, p=1, t=200)
        model = fit_lasso_var(emb, LassoConfig(lam=0.05, tol=1e-10, max_sweeps=5000))
        active = np.argwhere(model.A != 0.0)
        assert active.size > 0
        A_bad = model.A.copy()
        i, j = active[0]
        A_bad[i, j] += 0.1
        bad = VarModel(
            p=model.p, names=model.names, A=A_bad, sigma_u=model.sigma_u, lam=model.lam
        )
        assert kkt_violation(bad, emb) > kkt_violation(model, emb)
        assert kkt_violation(bad, emb) > 1e-3


def bic(A, emb):
    """Per-equation ``_bic`` of coefficients A, with the RSS computed from the samples."""
    resid = emb.Y - A @ emb.Z
    return _bic(np.einsum("kn,kn->k", resid, resid), np.count_nonzero(A, axis=1), emb.n_cols)


class TestBic:
    def test_extra_zero_rss_coefficient_costs_ln_n(self):
        emb, _, _ = embed_from_seed(6, k=3, p=1, t=100)
        A = fit_lasso_var(emb, LassoConfig(lam=0.1, tol=1e-10)).A
        # add a coefficient value so tiny the RSS is unchanged in float
        A2 = A.copy()
        i, j = np.argwhere(A2 == 0.0)[0]
        A2[i, j] = 1e-300
        delta = bic(A2, emb).sum() - bic(A, emb).sum()
        assert delta == pytest.approx(math.log(emb.n_cols), rel=1e-9)

    def test_empty_model_bic_is_tss_based(self):
        emb, _, _ = embed_from_seed(7, k=2, p=1, t=150)
        n = emb.n_cols
        model = fit_lasso_var(
            emb, LassoConfig(lam=lambda_max(emb.Y, emb.Z) * 1.01, tol=1e-10)
        )
        assert np.all(model.A == 0.0)
        tss = np.einsum("kn,kn->k", emb.Y, emb.Y)
        np.testing.assert_allclose(bic(model.A, emb), n * np.log(tss / n), rtol=1e-12)

    def test_noiseless_gives_neg_inf_sentinel(self, rng):
        init = rng.standard_normal((1, 2))
        spec = SyntheticSpec(
            k=2, p=1, t=60,
            coefficients=np.array([[0.5, 0.1], [0.0, 0.4]]),
            innovation_sd=0.0, seed=0, initial_state=init,
        )
        pnl, truth = simulate(spec)
        emb = lag_embed(pnl, 1)
        resid = emb.Y - truth.A @ emb.Z
        assert np.all(np.einsum("kn,kn->k", resid, resid) == 0.0)
        per_eq = bic(truth.A, emb)
        assert np.all(np.isneginf(per_eq))
        assert per_eq.sum() == float("-inf")

    def test_sparse_beats_dense_ols(self):
        # BIC-selected sparse fit vs dense OLS on synthetic K=5, p=2, T=500
        wins = 0
        cfg = LassoConfig(tol=1e-7, max_sweeps=3000)
        for seed in range(50):
            spec = SyntheticSpec(
                k=5, p=2, t=500,
                recipe=SparseRecipe(density=0.15, magnitude=0.3, seed=seed),
                seed=seed,
            )
            pnl, _ = simulate(spec)
            std, _ = standardize(pnl)
            emb = lag_embed(std, 2)
            lams = lambda_grid(lambda_max(emb.Y, emb.Z), LassoGrid(n_points=40, ratio=1e-3))
            best = min(bic(A, emb).sum()
                       for _, A, converged, _ in lasso_path(emb.Y, emb.Z, lams, cfg) if converged)
            ols = fit_lasso_var(emb, LassoConfig(lam=0.0, tol=1e-9, max_sweeps=5000))
            wins += best < bic(ols.A, emb).sum()
        assert wins >= 45


class TestFgls:
    def test_uncorrelated_errors_rho_near_zero(self):
        for seed in (11, 12, 13):
            spec = SyntheticSpec(
                k=5, p=2, t=2000,
                recipe=SparseRecipe(density=0.2, magnitude=0.25, seed=seed),
                seed=seed,
            )
            pnl, _ = simulate(spec)
            std, stats = standardize(pnl)
            emb = lag_embed(std, 2)
            cfg = LassoConfig(lam=0.02, tol=1e-8, max_sweeps=5000)
            fgls = fit_fgls_lasso_var(emb, cfg, stats=stats)
            homo = fit_lasso_var(emb, cfg, stats=stats)
            assert np.max(np.abs(fgls.rho)) < 0.1
            assert np.max(np.abs(fgls.A - homo.A)) < 2e-2

    def test_ar1_rho_recovered_when_unabsorbed(self):
        # a zero-coefficient system with the penalty at lambda_max leaves the
        # stage-1 residuals equal to the errors, so their AR(1) structure is
        # fully visible to the rho estimate
        hits = 0
        for seed in range(20):
            spec = SyntheticSpec(
                k=5, p=2, t=2000,
                coefficients=np.zeros((5, 10)),
                error="ar1", rho=0.6, seed=seed,
            )
            pnl, _ = simulate(spec)
            std, stats = standardize(pnl)
            emb = lag_embed(std, 2)
            lam = 1.05 * lambda_max(emb.Y, emb.Z)
            model = fit_fgls_lasso_var(emb, LassoConfig(lam=lam, tol=1e-8), stats=stats)
            hits += bool(np.all((model.rho >= 0.5) & (model.rho <= 0.7)))
        assert hits >= 18

    @pytest.mark.parametrize("seed", [12345, *range(1, 30)])
    def test_noiseless_var_identical_support(self, seed):
        # slowly spiralling noiseless dynamics keep signal through the burn-in;
        # with zero-residual data both stages converge to the same interpolant.
        # Its exact zeros are reached only to within rounding, so the supports
        # are compared at the test's own accuracy, |a| > 1e-10.
        import math as _math

        rng = np.random.default_rng(seed)
        th = 0.7
        c, s = 0.999 * _math.cos(th), 0.999 * _math.sin(th)
        A = np.array([[c, -s, 0.0], [s, c, 0.0], [0.3, 0.0, 0.998]])
        spec = SyntheticSpec(
            k=3, p=1, t=120, coefficients=A, innovation_sd=0.0, seed=0,
            initial_state=rng.standard_normal((1, 3)),
        )
        pnl, _ = simulate(spec)
        emb = lag_embed(pnl, 1)
        cfg = LassoConfig(lam=0.0, tol=1e-12, max_sweeps=50000)
        homo = fit_lasso_var(emb, cfg)
        fgls = fit_fgls_lasso_var(emb, cfg)
        np.testing.assert_array_equal(np.abs(fgls.A) > 1e-10, np.abs(homo.A) > 1e-10)
        assert np.max(np.abs(fgls.A - homo.A)) < 1e-10
        assert np.max(np.abs(homo.A - A)) < 1e-10

    def test_prais_winsten_whitens_exact_ar1(self):
        rng = np.random.default_rng(3)
        rho = 0.7
        n = 20000
        eps = rng.standard_normal(n)
        u = np.empty(n)
        u[0] = eps[0] / math.sqrt(1 - rho**2)
        for t in range(1, n):
            u[t] = rho * u[t - 1] + eps[t]
        w = prais_winsten(u.reshape(1, -1), rho)[0]
        w = w - w.mean()
        r1 = (w[1:] @ w[:-1]) / (w @ w)
        assert abs(r1) < 0.02


class TestModelSerialization:
    def test_json_roundtrip(self):
        emb, stats, _ = embed_from_seed(8, k=3, p=2, t=120)
        model = fit_fgls_lasso_var(emb, LassoConfig(lam=0.05, tol=1e-9), stats=stats)
        text = model.to_json()
        back = VarModel.from_json(text)
        np.testing.assert_array_equal(back.A, model.A)
        np.testing.assert_array_equal(back.sigma_u, model.sigma_u)
        np.testing.assert_array_equal(back.rho, model.rho)
        np.testing.assert_array_equal(back.stats.means, model.stats.means)
        assert back.lam == model.lam
        assert back.names == model.names
        assert back.estimator == model.estimator
        assert len(model.objective_history) > model.sweeps  # both stages, all rows
        assert back.objective_history == model.objective_history
        doc = json.loads(text)
        assert set(doc) == {"p", "names", "A", "sigma_u", "rho", "stats", "solver"}

    def test_model_validation(self):
        with pytest.raises(LassoError, match="sigma_u"):
            VarModel(
                p=1, names=("a", "b"), A=np.zeros((2, 2)),
                sigma_u=np.array([[1.0, 0.5], [0.2, 1.0]]),
            )
        with pytest.raises(LassoError, match="rho"):
            VarModel(
                p=1, names=("a", "b"), A=np.zeros((2, 2)), sigma_u=np.eye(2),
                rho=np.array([1.2, 0.0]),
            )


class TestFitPanelVar:
    def test_ols_estimator_forces_zero_penalty(self):
        spec = SyntheticSpec(
            k=3, p=1, t=200, recipe=SparseRecipe(density=0.4, magnitude=0.3, seed=9), seed=9
        )
        pnl, _ = simulate(spec)
        model = fit_panel_var(pnl, 1, LassoConfig(lam=0.5, tol=1e-9), estimator="ols")
        assert model.lam == 0.0
        assert model.estimator == "ols"
        assert model.stats is not None

    def test_ols_label_fits_at_zero_penalty_on_every_path(self):
        # the "ols" rule lives in _fit_stack, so fit_lasso_var applies it too
        spec = SyntheticSpec(
            k=3, p=1, t=200, recipe=SparseRecipe(density=0.4, magnitude=0.3, seed=9), seed=9
        )
        pnl, _ = simulate(spec)
        cfg = LassoConfig(lam=0.5, tol=1e-9)
        std, stats = standardize(pnl)
        model = fit_lasso_var(lag_embed(std, 1), cfg, stats, estimator="ols")
        assert (model.lam, model.estimator) == (0.0, "ols")
        assert np.count_nonzero(model.A) == model.A.size
        assert_bitwise(model.A, fit_panel_var(pnl, 1, cfg, "ols").A)

    def test_unknown_estimator(self):
        spec = SyntheticSpec(
            k=2, p=1, t=100, recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=0), seed=0
        )
        pnl, _ = simulate(spec)
        with pytest.raises(LassoError, match="estimator"):
            fit_panel_var(pnl, 1, LassoConfig(), estimator="ridge")
