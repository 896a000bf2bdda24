import numpy as np
import pytest

from sparsevar.granger import granger_network
from sparsevar.lasso import LassoConfig, LassoGrid
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


@pytest.fixture(scope="module")
def network():
    spec = SyntheticSpec(
        k=4, p=2, t=300,
        recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=3),
        seed=3,
    )
    panel, truth = simulate(spec)
    cfg = LassoConfig(grid=LassoGrid(n_points=50, ratio=1e-3))
    return granger_network(panel, 2, threshold=THRESHOLD, cfg=cfg), truth


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
