import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevar.lasso import (
    LassoConfig,
    LassoError,
    LassoGrid,
    VarModel,
    bic_score,
    fit_fgls_lasso_var,
    fit_lasso_var,
    fit_panel_var,
    fit_panel_vars,
    kkt_violation,
    lambda_grid,
    lambda_max,
    lasso_path,
    lasso_paths,
    prais_winsten,
    soft_threshold,
    _cd_gram,
    _cd_rows,
    _check_descent,
    _fgls_refit,
    _path_moments,
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
# core lasso._cd_gram is checked against: same coordinate order, update,
# threshold and stopping rule, with the objective read from a fresh residual.


def objective_value(A: np.ndarray, Y: np.ndarray, Z: np.ndarray, lam: float) -> float:
    """(1/N) ||A Z - Y||_F^2 + lam * sum |A|."""
    resid = Y - A @ Z
    n = Y.shape[1]
    return float(np.sum(resid * resid) / n + lam * np.sum(np.abs(A)))


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
    same iteration in covariance form.
    Returns (A, sweeps, converged, per-sweep objective values).
    """
    if lam < 0:
        raise LassoError(f"lambda must be >= 0, got {lam}")
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


# The covariance-form solvers with the sign-and-max step: 16 numpy calls per
# coordinate, the threshold as sign(rho) * max(|rho| - lambda / 2, 0), the change
# tracked at every coordinate and a column written only when it moved. The lean
# step of ``lasso._cd_step`` must reproduce their coefficients (up to the sign of
# zero), sweeps, convergence flags and objective histories exactly.


def _cd_gram_signmax(G, C, yy, lam, tol, max_sweeps, A):
    lam = np.asarray(lam, dtype=float)
    g = len(C)
    sweeps, converged = np.full(g, max_sweeps), np.zeros(g, dtype=bool)
    history = [[] for _ in range(g)]
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
                cols = list(zip(X.T, Gw[0].T, Cw[0].T, scale[groups[0]]))
                half_lam = lamw[0] / 2.0 if lamw.size > 1 else float(lamw[0, 0]) / 2.0
            else:
                X = W
                cols = list(zip(*(a.transpose(2, 0, 1)[..., None] for a in (W, Gw, Cw)),
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


def _cd_rows_signmax(G, C, yy, lam, tol, max_sweeps, A):
    R, m = C.shape
    sweeps, converged = np.full(R, max_sweeps), np.zeros(R, dtype=bool)
    history = [[] for _ in range(R)]
    diag = np.diagonal(G, axis1=1, axis2=2)
    work = (np.arange(R), A.copy(), C, yy, lam, np.where(diag > 0, diag, 1.0))
    live, Gw = np.ones(R, dtype=bool), G
    for sweep in range(1, max_sweeps + 1):
        rows, W, Cw, yyw, lamw, dw = work
        half_lam = lamw / 2.0
        change = np.zeros(len(rows))
        for j in range(m):
            old = W[:, j]
            rho_j = Cw[:, j] - np.einsum("rm,rm->r", W, Gw[:, j, :]) + old * dw[:, j]
            new = np.sign(rho_j) * np.maximum(np.abs(rho_j) - half_lam, 0.0) / dw[:, j]
            np.maximum(change, np.abs(new - old), out=change)
            W[:, j] = new
        obj = (yyw - 2.0 * np.einsum("rm,rm->r", W, Cw)
               + np.einsum("rm,rmn,rn->r", W, Gw, W) + lamw * np.abs(W).sum(axis=1))
        for r, o in zip(rows[live].tolist(), obj[live].tolist()):
            _check_descent(sweep, history[r][-1] if history[r] else np.inf, o)
            history[r].append(o)
        done = live & (change < tol)
        A[rows[done]] = W[done]
        sweeps[rows[done]] = sweep
        converged[rows[done]] = True
        live &= ~done
        if not live.any():
            break
        if 2 * np.count_nonzero(live) <= len(live):
            for dst, src in enumerate(np.flatnonzero(live).tolist()):
                G[dst] = G[src]
            work = tuple(a[live] for a in work)
            live = live[live]
            Gw = G[:len(live)]
    A[work[0][live]] = work[1][live]
    return sweeps, converged, history


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


class TestSoftThreshold:
    def test_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_hand_value(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zero_gamma_is_identity(self):
        assert soft_threshold(1.7, 0.0) == 1.7

    def test_negative_gamma_rejected(self):
        with pytest.raises(LassoError):
            soft_threshold(1.0, -0.1)

    def test_nan_gamma_rejected(self):
        with pytest.raises(LassoError):
            soft_threshold(1.0, float("nan"))

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
        emb, _, _ = embed_from_seed(3)
        model = fit_lasso_var(emb, LassoConfig(lam=1e-6, tol=1e-14, max_sweeps=1))
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

    @pytest.mark.parametrize("seed,k,p,t", [(0, 3, 1, 300), (1, 4, 2, 402), (2, 10, 2, 502)])
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

    @pytest.mark.parametrize("k,seed", [(1, 5), (4, 6), (10, 7)])
    def test_fgls_stage2_matches_residual_form(self, k, seed):
        # one stacked stage 2 for 8 path points, each point with its own penalty
        cfg = LassoConfig(grid=LassoGrid(n_points=8, ratio=1e-2))
        Y, Z, A1, lams = ar1_stage1_path(k, seed, cfg)
        A, rho, sweeps, converged, history = _fgls_refit([(Y, Z, len(lams))], A1, lams, cfg)
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
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        Y, Z, A1, lams = ar1_stage1_path(4, 6, cfg)
        A, _, sweeps, converged, history = _fgls_refit([(Y, Z, len(lams))], A1, lams, cfg)
        cap = int(sweeps.max()) - 1
        capped = replace(cfg, max_sweeps=cap)
        A_c, _, sweeps_c, converged_c, history_c = _fgls_refit([(Y, Z, len(lams))], A1, lams,
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
        G, C, yy = _whitened_moments(Y, Z, rhos)
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


class TestLockstepPaths:
    """``lasso_paths`` runs independent paths in lockstep; each must be the
    path it is alone, bit for bit."""

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("rows,k,p", [(1, 3, 2), (4, 4, 2), (10, 10, 2)])
    def test_each_group_equals_its_solo_path(self, rows, k, p, per_row):
        cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))
        data, (G, C, yy), lams = stacked_paths([11, 12, 13, 14], rows, k, p, per_row, cfg)
        stacked = list(lasso_paths(G, C, yy, lams, cfg))
        sweeps = np.array([s for _, _, _, s, _ in stacked])
        assert (sweeps.min(axis=1) < sweeps.max(axis=1)).any()  # groups stop apart
        for i, (Y, Z) in enumerate(data):
            grid = lams[:, i] if per_row else lams
            solo = list(lasso_paths(G[i: i + 1], C[i: i + 1], yy[i: i + 1],
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
        cfg = LassoConfig(grid=LassoGrid(n_points=25, ratio=1e-3))
        data, moments, lams = stacked_paths([21, 22, 23], 4, 4, 2, per_row, cfg)
        free = list(lasso_paths(*moments, lams, cfg))
        peak = np.array([s for _, _, _, s, _ in free]).max(axis=0)
        capped = replace(cfg, max_sweeps=int(np.sort(peak)[-2]))  # below the slowest group only
        hit = peak > capped.max_sweeps
        assert hit.sum() == 1
        capped_run = list(lasso_paths(*moments, lams, capped))
        for point, point_c in zip(free, capped_run):
            (_, A, conv, sweeps, hist), (_, A_c, conv_c, sweeps_c, hist_c) = point, point_c
            assert conv.all() and conv_c[~hit].all()
            assert_bitwise(A[~hit], A_c[~hit])
            np.testing.assert_array_equal(sweeps_c[~hit], sweeps[~hit])
            assert [hist[i] for i in np.flatnonzero(~hit)] == \
                [hist_c[i] for i in np.flatnonzero(~hit)]
            assert sweeps_c[hit] <= capped.max_sweeps
        # the capped group is its own solo path under the cap
        i = int(np.flatnonzero(hit)[0])
        solo = list(lasso_path(*data[i], lams[:, i] if per_row else lams, capped))
        assert not all(conv for _, _, conv, _ in solo)
        for (_, A_c, conv_c, sweeps_c, _), (_, A_s, conv_s, sweeps_s) in zip(capped_run, solo):
            assert_bitwise(A_c[i], A_s)
            assert (conv_c[i], sweeps_c[i]) == (conv_s, sweeps_s)

    def test_fixed_penalty_fit_is_a_lone_group(self):
        emb, _, _ = embed_from_seed(3, k=4, p=2, t=400, density=0.3, magnitude=0.25)
        cfg = LassoConfig(lam=0.05 * lambda_max(emb.Y, emb.Z))
        model = fit_lasso_var(emb, cfg)
        # the same problem twice in one stacked call: each copy equals the fit
        n = emb.n_cols
        G, C, yy = emb.Z @ emb.Z.T / n, emb.Y @ emb.Z.T / n, float(np.sum(emb.Y * emb.Y)) / n
        A = np.zeros((2,) + C.shape)
        sweeps, converged, history = _cd_gram(np.stack([G, G]), np.stack([C, C]),
                                              np.array([yy, yy]), np.full((2, 1), cfg.lam),
                                              cfg.tol, cfg.max_sweeps, A)
        for i in range(2):
            assert_bitwise(A[i], model.A)
            assert (sweeps[i], converged[i]) == (model.sweeps, model.converged)
            assert tuple(history[i]) == model.objective_history


def ar1_panels(seeds, k=4):
    """AR(1)-error simulate() panels of the same shape and different lengths."""
    return [simulate(SyntheticSpec(
        k=k, p=2, t=240 + 53 * i, recipe=SparseRecipe(density=0.3, magnitude=0.25, seed=seed),
        error="ar1", rho=0.5, seed=seed))[0] for i, seed in enumerate(seeds)]


class TestLockstepFits:
    """``fit_panel_vars`` fits independent panels in one lockstep solve (one
    ``_cd_gram`` group per panel, one ``_fgls_refit`` for every panel's
    equations); each must be the fit it is alone, bit for bit."""

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_each_panel_equals_its_solo_fit(self, estimator):
        panels = ar1_panels([31, 32, 33, 34])
        cfg = LassoConfig(lam=0.12, tol=1e-10)
        stacked = fit_panel_vars(panels.__getitem__, len(panels), 2, cfg, estimator)
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

    def test_fgls_stage2_of_several_designs_equals_one_call_each(self):
        # three designs' whole stage-1 paths in one _cd_rows loop; its rows stop
        # apart, so the live Grams are moved to the front of G more than once
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        designs = [ar1_stage1_path(4, seed, cfg) for seed in (6, 7, 8)]
        A1 = np.concatenate([d[2] for d in designs])
        lams = np.concatenate([d[3] for d in designs])
        A, rho, sweeps, converged, history = _fgls_refit(
            ((Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)
        assert len(np.unique(sweeps)) > 2
        start = 0
        for Y, Z, A1_d, lams_d in designs:
            one = _fgls_refit([(Y, Z, len(lams_d))], A1_d, lams_d, cfg)
            pts = slice(start, start + len(lams_d))
            for stacked, alone in zip((A[pts], rho[pts], sweeps[pts], converged[pts]), one[:4]):
                assert_bitwise(stacked, alone)
            assert history[pts] == one[4]
            start += len(lams_d)

    def test_empty_stack_rejected(self):
        with pytest.raises(LassoError, match="0 items"):
            fit_panel_vars(lambda i: None, 0, 2, LassoConfig(lam=0.1), "lasso")

    def test_fgls_designs_must_cover_every_point(self):
        cfg = LassoConfig(grid=LassoGrid(n_points=3, ratio=1e-2))
        Y, Z, A1, lams = ar1_stage1_path(2, 5, cfg)
        with pytest.raises(LassoError, match="cover 2 of 3"):
            _fgls_refit([(Y, Z, 2)], A1, lams, cfg)


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
    """``_cd_gram`` and ``_cd_rows`` equal the sign-and-max step kept above
    (``_cd_gram_signmax``, ``_cd_rows_signmax``): coefficients ``==``-equal,
    sweeps, convergence flags and objective histories identical, and every
    zero coefficient +0.0."""

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
        _, (G, C, yy), lams = stacked_paths([11, 12, 13, 14][:groups], 4, 4, 2, per_row,
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
        _, moments, lams = stacked_paths([21, 22, 23], 4, 4, 2, per_row, self.cfg)
        pens = list(lams) if per_row else [np.full((3, 1), lam) for lam in lams]
        free = self.assert_same(moments, pens, self.cfg.max_sweeps)
        peak = np.array([sweeps for _, sweeps, _, _ in free]).max(axis=0)
        cap = int(np.sort(peak)[-2])
        capped = self.assert_same(moments, pens, cap)
        hit = ~np.array([conv for _, _, conv, _ in capped]).all(axis=0)
        np.testing.assert_array_equal(hit, peak > cap)
        assert hit.sum() == 1

    @pytest.mark.parametrize("case", ["path", "lambda-zero", "capped"])
    def test_rows_equal_signmax_step_on_ar1_panels(self, monkeypatch, case):
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        designs = [ar1_stage1_path(4, seed, cfg) for seed in (6, 7, 8)]
        A1 = np.concatenate([d[2] for d in designs])
        lams = np.concatenate([d[3] for d in designs]) * (case != "lambda-zero")
        if case == "capped":
            free = _fgls_refit(((Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)
            cfg = replace(cfg, max_sweeps=int(np.median(free[2])))

        def refit():
            return _fgls_refit(((Y, Z, len(pl)) for Y, Z, _, pl in designs), A1, lams, cfg)

        lean = refit()
        monkeypatch.setattr("sparsevar.lasso._cd_rows", _cd_rows_signmax)
        ref = refit()
        assert np.array_equal(lean[0], ref[0])
        assert not np.signbit(lean[0][lean[0] == 0]).any()
        for a, b in zip(lean[1:4], ref[1:4]):
            assert_bitwise(a, b)
        assert lean[4] == ref[4]
        assert lean[3].any() and (case == "capped") == (not lean[3].all())
        if case == "path":
            assert (lean[0] == 0).any()

    def test_rows_zero_variance_regressor_stays_zero(self):
        cfg = LassoConfig(grid=LassoGrid(n_points=6, ratio=1e-3))
        Y, Z, A1, lams = ar1_stage1_path(4, 6, cfg)
        G, C, yy = _whitened_moments(Y, Z, np.full((len(lams), 4), 0.5))
        G, C, yy = G[:8], C[:8], yy[:8]
        G[:, 2, :] = G[:, :, 2] = C[:, 2] = 0.0
        A0 = A1.reshape(-1, A1.shape[2])[:8].copy()
        A0[:, 2] = 0.0
        outs = []
        for solver in (_cd_rows, _cd_rows_signmax):
            A = A0.copy()
            outs.append((A,) + solver(G.copy(), C, yy, np.repeat(lams, 4)[:8], cfg.tol,
                                      cfg.max_sweeps, A))
        (A, sweeps, conv, hist), (A_r, sweeps_r, conv_r, hist_r) = outs
        assert np.array_equal(A, A_r) and (A[:, 2] == 0).all()
        assert not np.signbit(A[A == 0]).any()
        assert_bitwise(sweeps, sweeps_r)
        assert_bitwise(conv, conv_r)
        assert hist == hist_r


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


class TestBic:
    def test_extra_zero_rss_coefficient_costs_ln_n(self):
        emb, _, _ = embed_from_seed(6, k=3, p=1, t=100)
        model = fit_lasso_var(emb, LassoConfig(lam=0.1, tol=1e-10))
        base = bic_score(model, emb)
        # add a coefficient value so tiny the RSS is unchanged in float
        A2 = model.A.copy()
        zero_spots = np.argwhere(A2 == 0.0)
        i, j = zero_spots[0]
        A2[i, j] = 1e-300
        bumped = VarModel(
            p=model.p, names=model.names, A=A2, sigma_u=model.sigma_u, lam=model.lam
        )
        delta = bic_score(bumped, emb).total - base.total
        assert delta == pytest.approx(math.log(emb.n_cols), rel=1e-9)

    def test_empty_model_bic_is_tss_based(self):
        emb, _, _ = embed_from_seed(7, k=2, p=1, t=150)
        n = emb.n_cols
        model = fit_lasso_var(
            emb, LassoConfig(lam=lambda_max(emb.Y, emb.Z) * 1.01, tol=1e-10)
        )
        assert np.all(model.A == 0.0)
        score = bic_score(model, emb)
        tss = np.einsum("kn,kn->k", emb.Y, emb.Y)
        np.testing.assert_allclose(score.per_equation, n * np.log(tss / n), rtol=1e-12)

    def test_noiseless_gives_neg_inf_sentinel(self, rng):
        init = rng.standard_normal((1, 2))
        spec = SyntheticSpec(
            k=2, p=1, t=60,
            coefficients=np.array([[0.5, 0.1], [0.0, 0.4]]),
            innovation_sd=0.0, seed=0, initial_state=init,
        )
        pnl, truth = simulate(spec)
        emb = lag_embed(pnl, 1)
        model = VarModel(p=1, names=pnl.names, A=truth.A, sigma_u=np.zeros((2, 2)))
        score = bic_score(model, emb)
        assert np.all(np.isneginf(score.per_equation))
        assert np.all(score.noiseless)
        assert score.total == float("-inf")

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
            best = np.inf
            for lam, A, converged, _ in lasso_path(emb.Y, emb.Z, lams, cfg):
                if not converged:
                    continue
                m = VarModel(p=2, names=pnl.names, A=A, sigma_u=np.eye(5), lam=lam)
                total = bic_score(m, emb).total
                best = min(best, total)
            ols = fit_lasso_var(emb, LassoConfig(lam=0.0, tol=1e-9, max_sweeps=5000))
            wins += best < bic_score(ols, emb).total
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

    def test_noiseless_var_identical_support(self, rng):
        # slowly spiralling noiseless dynamics keep signal through the burn-in;
        # with zero-residual data both stages converge to the same interpolant
        import math as _math

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
        np.testing.assert_array_equal(fgls.A != 0, homo.A != 0)
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

    def test_unknown_estimator(self):
        spec = SyntheticSpec(
            k=2, p=1, t=100, recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=0), seed=0
        )
        pnl, _ = simulate(spec)
        with pytest.raises(LassoError, match="estimator"):
            fit_panel_var(pnl, 1, LassoConfig(), estimator="ridge")
