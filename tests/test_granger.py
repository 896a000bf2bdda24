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
    granger_network,
    pds_granger,
    write_failures_csv,
)
from sparsevar.lasso import LassoConfig, LassoGrid
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
# a sweep cap on COARSE that some, not all, causes' selection paths hit
CAP_SWEEPS = 10


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

    def test_capped_design_skips_only_its_own_penalties(self, simulated, caplog):
        """Under a sweep cap that some designs hit at some penalties and others
        never do, every design selects exactly what it selects alone under the
        same cap, and only the designs that hit it log skipped penalties."""
        panel, _ = simulated
        D, rows, cols = selection_designs(panel, 2)
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


# p-values and LM statistics of multi-cause blocks on the panel above,
# recorded with one single-row lambda path per selection regression
PINNED_BLOCKS = [
    (False, "y1", ("y2", "y4"), 3.202817882020522e-17, 83.46986448303724),
    (False, "y2", ("y3", "y1"), 0.7903039591759808, 1.7022770186275529),
    (True, "y1", ("y2", "y4"), 2.0479139113885065e-10, 51.179094888893104),
    (True, "y2", ("y3", "y1"), 0.7415890437516737, 1.9683026188422446),
]


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
    def test_network_equals_single_pair_tests(self, simulated, variables, robust):
        panel, _ = simulated
        net = granger_network(panel, 2, THRESHOLD, COARSE, variables=variables, robust=robust)
        assert net.failures == ()
        names = net.variables
        single = np.full((len(names), len(names)), np.nan)
        for i, dst in enumerate(names):
            for j, src in enumerate(names):
                if src != dst:
                    spec = GrangerSpec(effect=dst, causes=(src,), p=2)
                    single[i, j] = pds_granger(panel, spec, COARSE, robust).p_value
        np.testing.assert_allclose(net.p_matrix, single, rtol=1e-10, atol=0.0)
        edges = {(names[j], names[i]) for i, j in np.argwhere(single < THRESHOLD)}
        assert {(e.source, e.target) for e in net.edges} == edges

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
