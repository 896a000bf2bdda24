import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from sparsevar import granger
from sparsevar.granger import (
    NO_CONVERGED_FIT,
    GrangerError,
    GrangerSpec,
    _bic_select,
    _chi2_sf,
    _cross_products,
    _lm_test,
    _split_rows,
    granger_network,
    pds_granger,
    write_failures_csv,
)
from sparsevar.lasso import (LassoConfig, LassoGrid, _bic, _path_moments, lambda_grid,
                             lambda_max, lasso_paths)
from sparsevar.panel import TimePanel, lag_embed, standardize
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate

THRESHOLD = 0.01

# p-value matrix (rows = effect, columns = cause) of the network below,
# recorded with the residual-form coordinate-descent solver
PINNED_P = np.array([
    [np.nan, 5.067618953638477e-13, 0.9655359541214793, 1.2071797883591769e-09],
    [0.9456856329484123, np.nan, 0.5422367411265558, 0.9108747427658881],
    [1.976453592864221e-24, 0.7320423852102811, np.nan, 1.7473501544511327e-06],
    [1.1205217536295783e-07, 0.2285056423973503, 0.15959900261558796, np.nan],
])
PINNED_EDGES = {("y2", "y1"), ("y4", "y1"), ("y1", "y3"), ("y4", "y3"), ("y1", "y4")}


CFG = LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-3))
# a coarser grid for the equivalence tests, which hold on any grid
COARSE = LassoConfig(grid=LassoGrid(n_points=20, ratio=1e-3))
# a sweep cap on COARSE that some, not all, causes' selection paths hit at lag
# CAP_LAG (21 regressors per design, too many for an exact solve of the dense
# points): the four designs peak at 22, 39, 34 and 29 sweeps
CAP_SWEEPS, CAP_LAG = 22, 7


@pytest.fixture(scope="module")
def simulated():
    spec = SyntheticSpec(
        k=4, p=2, t=300,
        recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=3),
        seed=3,
    )
    return simulate(spec)


@pytest.fixture(scope="module")
def network(simulated):
    panel, truth = simulated
    return granger_network(panel, 2, threshold=THRESHOLD, cfg=CFG), truth


def true_edges(truth, names):
    """(cause, effect) pairs with a nonzero coefficient at any lag."""
    K = len(names)
    A = np.asarray(truth.A)
    blocks = A.reshape(K, -1, K)  # effect x lag x cause
    any_lag = np.any(blocks != 0, axis=1)
    return {(names[j], names[i]) for i in range(K) for j in range(K) if i != j and any_lag[i, j]}


class TestGrangerNetwork:
    def test_pinned_p_values(self, network):
        net, _ = network
        assert net.failures == ()
        np.testing.assert_allclose(net.p_matrix, PINNED_P, rtol=1e-10, atol=0.0)
        assert {(e.source, e.target) for e in net.edges} == PINNED_EDGES

    def test_detects_strong_true_edges(self, network):
        net, truth = network
        found = {(e.source, e.target) for e in net.edges}
        expected = true_edges(truth, net.variables)
        assert expected  # the design has cross-series effects to find
        assert expected <= found

    def test_edges_are_subthreshold_entries(self, network):
        net, _ = network
        names = net.variables
        below = {
            (names[j], names[i]): net.p_matrix[i, j]
            for i, j in np.argwhere(net.p_matrix < THRESHOLD)
        }
        assert {(e.source, e.target): e.p_value for e in net.edges} == below
        assert np.all(np.isnan(np.diag(net.p_matrix)))
        off = ~np.eye(len(names), dtype=bool)
        assert np.all((net.p_matrix[off] >= 0) & (net.p_matrix[off] <= 1))


def selection_designs(panel, p):
    """Every cause's selection design of the network as rows of D = [Y; Z]:
    the responses (the other series, then the cause's p lags), (K, K - 1 + p),
    and the regressors (every other lag), (K, (K - 1) p)."""
    embed = lag_embed(standardize(panel)[0], p)
    K = panel.n_series
    rows, cols = [], []
    for c in range(K):
        gc_rows = [lag * K + c for lag in range(p)]
        rows.append([k for k in range(K) if k != c] + [K + j for j in gc_rows])
        cols.append([K + j for j in range(K * p) if j not in gc_rows])
    return np.vstack([embed.Y, embed.Z]), np.array(rows), np.array(cols)


def bic_select_per_point(D, rows, cols, cfg):
    """``_bic_select`` with one scoring pass per path point: the reference for its block
    scoring."""
    rows, cols, n = np.asarray(rows), np.asarray(cols), D.shape[1]
    lmax, moments = np.zeros(rows.shape), []
    for i, (y, x) in enumerate((D[r], D[c]) for r, c in zip(rows, cols)):
        lmax[i] = np.abs(((2.0 / n) * y)[:, None, :] @ x.T).max(axis=(1, 2))
        moments.append(_path_moments(y, x, per_row=True))
    live = lmax != 0.0
    top = np.where(live, lmax, 1.0)
    grid = np.where(live, np.geomspace(top, top * cfg.grid.ratio, cfg.grid.n_points), 0.0)
    G, C, yy = (np.stack(parts) for parts in zip(*moments))
    C[~live] = 0.0
    yy_rows, C2 = np.einsum("dn,dn->d", D, D)[rows] / n, 2.0 * C
    lams, best = np.zeros(lmax.shape), np.full(lmax.shape, np.inf)
    support = np.zeros(live.shape + cols.shape[1:], dtype=bool)
    ok = ~live.any(axis=1)
    for lam, A, converged, _, _ in lasso_paths(G.copy(), C, yy, grid, cfg):
        rss = n * np.maximum(yy_rows - np.einsum("grm,grm->gr", A, C2 - A @ G), 0.0)
        bic = _bic(rss, np.count_nonzero(A, axis=2), n)
        better = (bic < best) & live & converged[:, None]
        best[better], lams[better], support[better] = bic[better], lam[better], A[better] != 0.0
        ok |= converged
    return lams, support, ok


class TestBatchedSelection:
    def test_rows_select_as_when_run_alone(self, simulated):
        """Each row of every cause's selection design, with all designs in one
        lockstep call, picks the penalty and support it picks on its own path."""
        panel, _ = simulated
        K = panel.n_series
        D, rows, cols = selection_designs(panel, 2)
        lams, support, ok = _bic_select(D, rows, cols, COARSE)
        assert ok.all()
        assert lams.shape == (K, K - 1 + 2) and support.shape == (K, K - 1 + 2, 2 * K - 2)
        for c in range(K):
            for r in range(rows.shape[1]):
                lam_r, support_r, ok_r = _bic_select(D, rows[c, None, r: r + 1], cols[c, None],
                                                     COARSE)
                assert ok_r[0] and lams[c, r] == lam_r[0, 0]
                np.testing.assert_array_equal(support[c, r], support_r[0, 0])

    @pytest.mark.parametrize("k,p,t,cfg,blocks", [
        (5, 2, 600, CFG, 1),  # the bench network: its whole path in one block
        (30, 1, 300, CFG, 10),  # 26,100 coefficients a point: 5 points a block
        # some designs do not converge at points that would have the lowest BIC
        (4, CAP_LAG, 300, replace(CFG, max_sweeps=10), 1),
    ])
    def test_blocks_select_as_one_pass_per_point(self, monkeypatch, k, p, t, cfg, blocks):
        """Scoring the path's points in blocks picks each row's penalty and support, and
        each design's converged flag, bit for bit as one scoring pass per point does."""
        panel = simulate(SyntheticSpec(k=k, p=min(p, 2), t=t, recipe=SparseRecipe(
            density=0.3 if k < 10 else 0.05, magnitude=0.35 if k < 10 else 0.3, seed=3),
            seed=3))[0]
        D, rows, cols = selection_designs(panel, p)
        calls, bic = [], granger._bic
        monkeypatch.setattr(granger, "_bic", lambda *args: calls.append(1) or bic(*args))
        got = _bic_select(D, rows, cols, cfg)
        assert len(calls) == blocks
        for block, point in zip(got, bic_select_per_point(D, rows, cols, cfg), strict=True):
            assert block.shape == point.shape and block.tobytes() == point.tobytes()

    @pytest.mark.parametrize("points", [1, 3, 50])
    def test_blocks_of_any_length_break_ties_toward_the_larger_penalty(self, monkeypatch,
                                                                        points):
        """A response equal to a regressor has BIC -inf at many points (RSS rounds to 0). With
        blocks of 1, 3 or all 50 points, it selects the first of them, as one pass per point
        does."""
        X = np.random.default_rng(0).standard_normal((3, 200))
        D, cfg = np.vstack([X[1], X]), LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-9))
        monkeypatch.setattr(granger, "_BIC_BLOCK", 3 * points)  # 3 coefficients a point
        got = _bic_select(D, [[0]], [[1, 2, 3]], cfg)
        for block, point in zip(got, bic_select_per_point(D, [[0]], [[1, 2, 3]], cfg)):
            assert block.tobytes() == point.tobytes()

    def test_row_orthogonal_to_every_regressor_gets_empty_model(self, rng):
        # D holds a response, a zero row, another response and three regressors
        D = np.vstack([rng.standard_normal(50), np.zeros(50), rng.standard_normal((4, 50))])
        lams, support, ok = _bic_select(D, [[0, 1]], [[3, 4, 5]], CFG)
        assert ok[0] and lams[0, 1] == 0.0 and not support[0, 1].any()
        assert lams[0, 0] > 0.0
        # beside a design without such a row, each selects as it does alone
        both, both_support, both_ok = _bic_select(D, [[0, 1], [0, 2]], [[3, 4, 5]] * 2, CFG)
        alone, alone_support, _ = _bic_select(D, [[0, 2]], [[3, 4, 5]], CFG)
        assert both_ok.all()
        np.testing.assert_array_equal(both, np.vstack([lams, alone]))
        np.testing.assert_array_equal(both_support, np.concatenate([support, alone_support]))

    @pytest.mark.parametrize("n_points,ratio", [(50, 1e-3), (20, 1e-3), (1, 1e-3), (7, 0.123)])
    def test_grid_is_each_rows_lambda_grid(self, simulated, monkeypatch, n_points, ratio):
        """The per-row grids of all designs, from one geomspace call, equal
        ``lambda_grid`` of each row's own ``lambda_max`` bit for bit."""
        D, rows, cols = selection_designs(simulated[0], 2)
        grids, paths = [], granger.lasso_paths

        def spy(G, C, yy, lams, cfg):
            grids.append(lams)
            return paths(G, C, yy, lams, cfg)

        monkeypatch.setattr(granger, "lasso_paths", spy)
        _bic_select(D, rows, cols, LassoConfig(grid=LassoGrid(n_points=n_points, ratio=ratio)))
        for i, (r_i, c_i) in enumerate(zip(rows, cols)):
            for r, row in enumerate(r_i):
                expected = lambda_grid(lambda_max(D[[row]], D[c_i]), LassoGrid(n_points, ratio))
                np.testing.assert_array_equal(grids[0][:, i, r], expected)

    @pytest.mark.parametrize("R,m,n", [(1, 3, 50), (4, 8, 638), (10, 20, 998),
                                       (19, 16, 9998), (50, 49, 1459)])
    def test_per_row_lambda_max_has_each_rows_bits(self, monkeypatch, R, m, n):
        """Each design's per-row ``lambda_max``, one stacked product, equals each row's own
        call bit for bit, the paper-scale selection design (K = 50, p = 1) included: a
        one-point grid is its lambda_max."""
        D = np.random.default_rng(R * m).standard_normal((R + m, n))
        rows, cols = [list(range(R))] * 2, [list(range(R, R + m))] * 2
        grids, paths = [], granger.lasso_paths

        def spy(G, C, yy, lams, cfg):
            grids.append(lams)
            return paths(G, C, yy, lams, cfg)

        monkeypatch.setattr(granger, "lasso_paths", spy)
        _bic_select(D, rows, cols, LassoConfig(grid=LassoGrid(n_points=1, ratio=0.5)))
        expected = [lambda_max(D[[r]], D[R:]) for r in range(R)]
        for i in range(2):
            np.testing.assert_array_equal(grids[0][0, i], expected)

    def test_row_equal_to_a_regressor_selects_it(self):
        """A response equal to a regressor is fitted exactly as the penalty falls:
        its RSS from moments rounds to 0 or below, which reads as BIC -inf
        (under the RuntimeWarning-as-error filter, a log of a negative RSS fails)."""
        X = np.random.default_rng(0).standard_normal((3, 200))
        D = np.vstack([X[1], X])
        lams, support, ok = _bic_select(D, [[0]], [[1, 2, 3]],
                                        LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-9)))
        assert ok[0] and lams[0, 0] > 0.0
        np.testing.assert_array_equal(support[0, 0], [False, True, False])

    def test_capped_design_skips_only_its_own_penalties(self, simulated, caplog):
        """Under a sweep cap that some designs hit at some penalties and others
        never do, every design selects exactly what it selects alone under the
        same cap, and only the designs that hit it log skipped penalties."""
        panel, _ = simulated
        D, rows, cols = selection_designs(panel, CAP_LAG)
        cap = replace(COARSE, max_sweeps=CAP_SWEEPS)
        lams, support, ok = _bic_select(D, rows, cols, cap)
        assert ok.all()
        hit = []
        for c in range(len(rows)):
            caplog.clear()
            lam_c, support_c, _ = _bic_select(D, rows[c, None], cols[c, None], cap)
            hit.append(bool(caplog.records))
            np.testing.assert_array_equal(lams[c], lam_c[0])
            np.testing.assert_array_equal(support[c], support_c[0])
        assert any(hit) and not all(hit)

    def test_design_swept_at_the_last_penalty_scores_as_alone(self, simulated, monkeypatch):
        """At lag CAP_LAG (21 regressors) some designs' last, dense points are beyond an
        exact solve and sweep; there lasso_paths sweeps on the Gram stack it is given, which
        it then overwrites. Every design's BIC at every point, the last read from its Gram
        after that sweep, must be the one it has alone. ``_bic`` scores a block of points at
        once; the spy splits each block along its point axis."""
        D, rows, cols = selection_designs(simulated[0], CAP_LAG)
        sweeps, bics, paths, bic = [], [], granger.lasso_paths, granger._bic

        def spy(G, C, yy, lams, cfg):
            for point in paths(G, C, yy, lams, cfg):
                sweeps.append(point[3])
                yield point

        def split(*args):
            block = bic(*args)
            bics.extend(block.copy())  # one (g, R) array per point, before any masking
            return block

        monkeypatch.setattr(granger, "lasso_paths", spy)
        monkeypatch.setattr(granger, "_bic", split)
        lams, support, ok = _bic_select(D, rows, cols, COARSE)
        batch, last = bics[:], sweeps[-1]
        assert ok.all() and (last > 1).any() and len(set(last.tolist())) > 1
        for c in range(len(rows)):
            bics.clear()
            lam_c, support_c, _ = _bic_select(D, rows[c, None], cols[c, None], COARSE)
            for point, alone in zip(batch, bics, strict=True):
                np.testing.assert_array_equal(point[c], alone[0])
            np.testing.assert_array_equal(lams[c], lam_c[0])
            np.testing.assert_array_equal(support[c], support_c[0])


# p-values and LM statistics of multi-cause blocks on the panel above,
# recorded with one single-row lambda path per selection regression
PINNED_BLOCKS = [
    (False, "y1", ("y2", "y4"), 3.202817882020522e-17, 83.46986448303724),
    (False, "y2", ("y3", "y1"), 0.7903039591759808, 1.7022770186275529),
    (True, "y1", ("y2", "y4"), 2.0479139113885065e-10, 51.179094888893104),
    (True, "y2", ("y3", "y1"), 0.7415890437516737, 1.9683026188422446),
]


def single_pair_p_values(panel, names, cfg, robust, p=2):
    """p-value matrix (rows = effect) of one ``pds_granger`` call per ordered pair."""
    single = np.full((len(names), len(names)), np.nan)
    for i, dst in enumerate(names):
        for j, src in enumerate(names):
            if src != dst:
                spec = GrangerSpec(effect=dst, causes=(src,), p=p)
                single[i, j] = pds_granger(panel, spec, cfg, robust).p_value
    return single


class TestPdsGranger:
    @pytest.mark.parametrize("robust,effect,causes,p_value,lm", PINNED_BLOCKS)
    def test_pinned_blocks(self, simulated, robust, effect, causes, p_value, lm):
        panel, _ = simulated
        res = pds_granger(panel, GrangerSpec(effect=effect, causes=causes, p=2), CFG, robust)
        assert res.dof == 2 * len(causes)
        assert len(res.lambda_used) == 1 + 2 * len(causes)
        np.testing.assert_allclose([res.p_value, res.lm_statistic], [p_value, lm],
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("variables,robust", [(None, False), (("y4", "y1", "y3"), True)])
    def test_network_equals_single_pair_tests(self, simulated, variables, robust, p=2):
        panel, _ = simulated
        net = granger_network(panel, p, THRESHOLD, COARSE, variables=variables, robust=robust)
        assert net.failures == ()
        names = net.variables
        single = single_pair_p_values(panel, names, COARSE, robust, p)
        np.testing.assert_allclose(net.p_matrix, single, rtol=1e-10, atol=0.0)
        edges = {(names[j], names[i]) for i, j in np.argwhere(single < THRESHOLD)}
        assert {(e.source, e.target) for e in net.edges} == edges

    def test_network_with_designs_swept_at_the_last_penalty_equals_single_pair_tests(
            self, simulated):
        # at lag CAP_LAG some selection designs are too dense to settle their last penalty
        self.test_network_equals_single_pair_tests(simulated, None, False, CAP_LAG)

    def test_robust_form_finds_the_same_edges(self, simulated):
        """Under homoskedastic errors the robust score test agrees with the
        plain LM test on the pinned panel's edge set."""
        panel, _ = simulated
        net = granger_network(panel, 2, THRESHOLD, CFG, robust=True)
        assert net.failures == ()
        assert {(e.source, e.target) for e in net.edges} == PINNED_EDGES

    def test_null_size(self):
        """Independent N(0, 1) series: 20 panels x 6 pairs = 120 tests at
        alpha = 0.05. Under exact size the rejection count is Binomial(120,
        0.05), mean 6, and lies in [1, 13] with probability 0.997."""
        alpha = 0.05
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(300))
        off = ~np.eye(3, dtype=bool)
        rejections = 0
        for seed in range(20):
            values = np.random.default_rng(seed).standard_normal((300, 3))
            net = granger_network(TimePanel(dates, ("a", "b", "c"), values), 2, alpha, COARSE)
            assert net.failures == ()
            rejections += int(np.sum(net.p_matrix[off] < alpha))
        assert 1 <= rejections <= 13

    def test_duplicated_series_fails_its_pairs_and_tests_the_rest(self, simulated):
        """A copy of y2 makes the lags of y2 and of the copy exact duplicates.
        Every pair testing either one selects the copy as a control (it fits
        the tested lag exactly) and is recorded as a collinear failure; the
        pairs that stay clear of the tie are still tested."""
        panel, _ = simulated
        values = np.column_stack([panel.values[:, :3], panel.values[:, 1]])
        dup = TimePanel(panel.dates, ("y1", "y2", "y3", "y2_copy"), values)
        net = granger_network(dup, 2, THRESHOLD, COARSE)
        failed = {(src, dst): reason for src, dst, reason in net.failures}
        assert len(failed) == len(net.failures)
        assert all(reason.startswith("collinear regressors") for reason in failed.values())
        for src in ("y2", "y2_copy"):
            assert {(src, dst) for dst in dup.names if dst != src} <= failed.keys()
        names = net.variables
        tested = {
            (names[j], names[i]) for i, j in np.argwhere(~np.isnan(net.p_matrix))
        }
        assert tested and not tested & failed.keys()
        assert len(tested) + len(failed) == 12

    def test_cause_without_converged_fit_fails_only_its_pairs(self, simulated, monkeypatch,
                                                               tmp_path):
        """A cause whose selection paths never converge fails its own pairs,
        each with one reason in granger_failures.csv; every other pair gets the
        p-value it gets when all causes converge. pds_granger raises instead."""
        panel, _ = simulated
        ref = granger_network(panel, 2, THRESHOLD, COARSE)
        paths = granger.lasso_paths

        def never_converges(designs):
            def patched(*args):
                for lam, A, converged, sweeps, history in paths(*args):
                    converged = converged.copy()
                    converged[designs] = False
                    yield lam, A, converged, sweeps, history
            return patched

        monkeypatch.setattr(granger, "lasso_paths", never_converges(slice(1, 2)))
        net = granger_network(panel, 2, THRESHOLD, COARSE)
        names = net.variables
        assert net.failures == tuple((names[1], dst, NO_CONVERGED_FIT)
                                     for dst in names if dst != names[1])
        expected = ref.p_matrix.copy()
        expected[:, 1] = np.nan
        np.testing.assert_array_equal(net.p_matrix, expected)
        write_failures_csv(net, tmp_path / "failures.csv")
        lines = (tmp_path / "failures.csv").read_text().strip().splitlines()
        assert lines == ["from,to,reason"] + [
            f"y2,{dst},{NO_CONVERGED_FIT}" for dst in ("y1", "y3", "y4")]
        spec = GrangerSpec(effect="y1", causes=("y3", "y4"), p=2)
        pds_granger(panel, spec, COARSE)  # its one design is design 0
        monkeypatch.setattr(granger, "lasso_paths", never_converges(slice(None)))
        with pytest.raises(GrangerError, match="no converged fit"):
            pds_granger(panel, spec, COARSE)

    def test_rejects_lag_order_below_one(self, simulated):
        with pytest.raises(GrangerError, match="lag order"):
            granger_network(simulated[0], 0)

    @pytest.mark.parametrize("variables,message", [
        (("y1", "y2", "y1", "y3", "y3"), "duplicate names in variables: y1, y3"),
        ((), "no variables given"),
    ])
    def test_rejects_repeated_or_no_variables(self, simulated, monkeypatch, variables, message):
        # rejected as GrangerSpec rejects its causes, before the panel is standardized
        monkeypatch.setattr(granger, "standardize", None)
        with pytest.raises(GrangerError, match=message):
            granger_network(simulated[0], 2, cfg=COARSE, variables=variables)


def lstsq_lm(embed, effect, gc_rows, control_rows, robust):
    """Reference for ``_lm_test``: the final LM test by least squares on the
    samples, with an SVD rank check and up to three ``lstsq`` solves. Returns
    the statistic and the tested-block coefficients."""
    n, y, Z_gc, Xc = embed.n_cols, embed.Y[effect], embed.Z[gc_rows], embed.Z[control_rows]
    X_full = np.vstack([Z_gc, Xc])
    assert np.linalg.matrix_rank(X_full) == len(X_full)
    beta_r, *_ = np.linalg.lstsq(Xc.T, y, rcond=None)
    eps = y - beta_r @ Xc
    beta_full, *_ = np.linalg.lstsq(X_full.T, y, rcond=None)
    if robust:
        lm = granger._robust_lm(eps, Z_gc, Xc)
    else:
        beta_aux, *_ = np.linalg.lstsq(X_full.T, eps, rcond=None)
        resid_aux = eps - beta_aux @ X_full
        lm = n * (1.0 - float(resid_aux @ resid_aux) / float(eps @ eps))
    return lm, beta_full[:len(gc_rows)]


def partial_out(X, V):
    """Rows of V less their projection on the span of the rows of X, by modified
    Gram-Schmidt run twice, in np.longdouble."""
    X, V, basis = X.astype(np.longdouble), V.astype(np.longdouble), []
    for x in X:
        for _ in range(2):
            for q in basis:
                x = x - (q @ x) * q
        basis.append(x / np.sqrt(x @ x))
    for _ in range(2):
        for q in basis:
            V = V - np.outer(V @ q, q)
    return V


class TestLmFromMoments:
    @pytest.mark.parametrize("robust", [False, True])
    def test_matches_least_squares_reference(self, simulated, robust):
        """Every pair of the pinned panel: statistic and tested coefficients of
        the Cholesky form against the least-squares form on the same design."""
        panel, _ = simulated
        embed = lag_embed(standardize(panel)[0], 2)
        labels = embed.regressor_names()
        for effect, dst in enumerate(panel.names):
            for cause, src in enumerate(panel.names):
                if cause == effect:
                    continue
                res = pds_granger(panel, GrangerSpec(effect=dst, causes=(src,), p=2), CFG, robust)
                gc_rows, _ = _split_rows(panel.n_series, 2, [cause])
                controls = [labels.index(name) for name in res.selected_controls]
                lm, coef = lstsq_lm(embed, effect, gc_rows, controls, robust)
                np.testing.assert_allclose(res.lm_statistic, lm, rtol=1e-10, atol=0.0)
                np.testing.assert_allclose(res.gc_coefficients, coef, rtol=1e-10, atol=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 on this platform")
    def test_no_cancellation_near_p_one(self):
        """The pair y5 -> y12 of a paper-scale panel (K=50, T=1460, p=1), on the
        one control pds_granger selects there (y20.l1), has p ~ 0.9996 and LM ~
        2.2e-7. The least-squares 1 - RSS_aux / TSS cancels there; ||z_gc||^2 is
        the explained sum itself. Against an extended-precision Gram-Schmidt
        reference, the moment form is the more accurate of the two."""
        spec = SyntheticSpec(k=50, p=1, t=1460,
                             recipe=SparseRecipe(density=0.05, magnitude=0.3, seed=0), seed=0)
        embed = lag_embed(standardize(simulate(spec)[0])[0], 1)
        effect, gc_rows = 11, [4]
        controls = [embed.regressor_names().index("y20.l1")]
        M = _cross_products(np.vstack([embed.Y, embed.Z]))
        lm, _, _ = _lm_test(embed, M, effect, gc_rows, controls, robust=False)
        lm_lstsq, _ = lstsq_lm(embed, effect, gc_rows, controls, robust=False)
        eps = partial_out(embed.Z[controls], embed.Y[[effect]])
        fitted = eps - partial_out(partial_out(embed.Z[controls], embed.Z[gc_rows]), eps)
        ref = embed.n_cols * np.sum(fitted * fitted) / np.sum(eps * eps)
        new_err, old_err = (float(abs((v - ref) / ref)) for v in (lm, lm_lstsq))
        assert new_err < 1e-10 and new_err <= old_err

    def test_near_collinear_regressors_are_named(self, simulated):
        """A series equal to y2 plus 1e-9 noise: its lags and y2's are collinear
        under the pivot rule (least squares took them as full rank). Testing y2
        selects the twin's lags as controls, and the error names all four."""
        panel, _ = simulated
        near = panel.values[:, 1] + 1e-9 * np.random.default_rng(0).standard_normal(panel.n_obs)
        twin = TimePanel(panel.dates, ("y1", "y2", "y3", "y2n"),
                         np.column_stack([panel.values[:, :3], near]))
        with pytest.raises(GrangerError) as err:
            pds_granger(twin, GrangerSpec(effect="y1", causes=("y2",), p=2), COARSE)
        assert str(err.value) == ("collinear regressors in final design: "
                                  "['y2.l1', 'y2.l2', 'y2n.l1', 'y2n.l2']")

    @pytest.mark.parametrize("robust", [False, True])
    def test_network_equals_single_pair_tests_bit_for_bit(self, simulated, robust):
        panel, _ = simulated
        net = granger_network(panel, 2, THRESHOLD, CFG, robust=robust)
        single = single_pair_p_values(panel, net.variables, CFG, robust)
        np.testing.assert_array_equal(net.p_matrix, single)


# the LM statistic of test_no_cancellation_near_p_one's pair (dof 1), where p ~ 0.9996
NEAR_P_ONE = 2.2e-7


def chi2_grid(dofs, n_x):
    """(dof, x) over a log grid from 1e-12 to 3000; x = 3000 is past where the tail
    of every dof up to 200 falls below 1e-300."""
    return [(dof, float(x)) for dof in dofs for x in np.geomspace(1e-12, 3000.0, n_x)]


class TestChi2Sf:
    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        dof, x = np.array([(1, NEAR_P_ONE), *chi2_grid(range(1, 201), 60)]).T
        ref = special.chdtrc(dof, x)
        assert np.all(ref[x == 3000.0] < 1e-300)
        keep = ref >= 1e-300
        got = [_chi2_sf(xi, int(k)) for k, xi in zip(dof[keep], x[keep])]
        np.testing.assert_allclose(got, ref[keep], rtol=5e-13, atol=0.0)

    def test_matches_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for dof, x in [(1, NEAR_P_ONE), *chi2_grid(range(1, 201, 3), 30)]:
                ref = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True)
                if ref >= 1e-300:
                    assert abs(_chi2_sf(x, dof) - ref) <= 2e-13 * ref, (dof, x)

    def test_statistic_at_or_below_zero_gets_one(self):
        cases = [(-1e-300, 1), (-3.0, 4), (0.0, 1), (0.0, 7)]
        assert [_chi2_sf(x, dof) for x, dof in cases] == [1.0] * 4

    @pytest.mark.parametrize("x", [1e-12, NEAR_P_ONE, 0.5, 3.84, 40.0, 1300.0])
    def test_one_dof_is_erfc(self, x):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))

    @pytest.mark.parametrize("dof", [1, 2, 3, 50, 200])
    def test_far_tail_is_zero_without_warning(self, dof):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [_chi2_sf(x, dof) for x in (1e4, 1e6, 1e300)] == [0.0] * 3

    def test_falls_with_x_and_rises_with_dof(self):
        """Monotone up to the accuracy checked against mpmath: near p = 1 the terms'
        rounding (a few e-15 of a sum of ~1) can outweigh a step in x or dof."""
        tol = 2e-13
        x = np.geomspace(1e-6, 2000.0, 400)
        for dof in (1, 2, 5, 30, 200):
            p = np.array([_chi2_sf(float(xi), dof) for xi in x])
            assert np.all(np.diff(p) <= tol * p[:-1]) and p[0] > 0.999 and p[-1] < 1e-290
        for xi in (1e-3, 1.0, 50.0, 700.0):
            p = np.array([_chi2_sf(xi, dof) for dof in range(1, 201)])
            assert np.all(np.diff(p) >= -tol * p[1:]) and p[0] < p[-1]


# a K=20, T=600, p=2 network, plain then robust; prints each p-value matrix's bytes
THREADS_CHILD = """
from sparsevar.granger import granger_network
from sparsevar.lasso import LassoConfig, LassoGrid
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate
spec = SyntheticSpec(k=20, p=2, t=600, recipe=SparseRecipe(density=0.1, magnitude=0.3, seed=20),
                     seed=20)
panel, _ = simulate(spec)
cfg = LassoConfig(grid=LassoGrid(n_points=20, ratio=1e-3))
for robust in (False, True):
    print(granger_network(panel, 2, 0.01, cfg, robust=robust).p_matrix.tobytes().hex())
"""


def test_p_values_do_not_depend_on_the_blas_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    children = [subprocess.Popen([sys.executable, "-c", THREADS_CHILD], stdout=subprocess.PIPE,
                                 text=True, env=dict(os.environ, PYTHONPATH=src,
                                                     OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]
    outs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outs[0].split()) == 2 and outs[0] == outs[1]
