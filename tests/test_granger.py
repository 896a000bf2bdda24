from datetime import date, timedelta

import numpy as np
import pytest

from sparsevar.granger import (
    GrangerError,
    GrangerSpec,
    _bic_select,
    granger_network,
    pds_granger,
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


class TestBatchedSelection:
    def test_rows_select_as_when_run_alone(self, simulated):
        """Each row of one multi-row path picks the penalty and support it
        picks on its own path, for every cause's selection design."""
        panel, _ = simulated
        embed = lag_embed(standardize(panel)[0], 2)
        K = panel.n_series
        for c in range(K):
            gc_rows = [c, K + c]
            other = [j for j in range(2 * K) if j not in gc_rows]
            rows = np.vstack([np.delete(embed.Y, c, axis=0), embed.Z[gc_rows]])
            lams, support = _bic_select(rows, embed.Z[other], COARSE)
            assert lams.shape == (K - 1 + 2,) and support.shape == (K - 1 + 2, len(other))
            for r in range(rows.shape[0]):
                lam_r, support_r = _bic_select(rows[r: r + 1], embed.Z[other], COARSE)
                assert lams[r] == lam_r[0]
                np.testing.assert_array_equal(support[r], support_r[0])

    def test_row_orthogonal_to_every_regressor_gets_empty_model(self, rng):
        X = rng.standard_normal((3, 50))
        Y = np.vstack([rng.standard_normal(50), np.zeros(50)])
        lams, support = _bic_select(Y, X, CFG)
        assert lams[1] == 0.0 and not support[1].any()
        assert lams[0] > 0.0


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

    def test_rejects_lag_order_below_one(self, simulated):
        with pytest.raises(GrangerError, match="lag order"):
            granger_network(simulated[0], 0)
