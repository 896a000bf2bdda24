import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from sparsevar import granger
from sparsevar.cli import build_parser, main
from sparsevar.lasso import LassoConfig, LassoGrid
from sparsevar.panel import TimePanel, read_panel_csv, write_panel_csv
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["sparsevar", "sparsevar.cli"])
def test_import_does_not_load_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_threads_is_a_forecast_option_only():
    parser = build_parser()
    assert parser.parse_args(["forecast", "--threads", "2"]).threads == 2
    for command in ("granger", "cv", "fit", "simulate"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--threads", "2"])
        assert exc.value.code == 2


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestGrangerCommand:
    def test_writes_every_output(self, tmp_path):
        spec = SyntheticSpec(k=3, p=2, t=200,
                             recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=5), seed=5)
        pnl, _ = simulate(spec)
        path = tmp_path / "panel.csv"
        write_panel_csv(pnl, path)
        out = tmp_path / "out"
        code = main(["granger", "--panel", str(path), "--lag", "2", "--grid", "20,0.001",
                     "--threshold", "0.05", "--out", str(out)])
        assert code == 0

        net = granger.granger_network(read_panel_csv(path), 2, threshold=0.05,
                                      cfg=LassoConfig(grid=LassoGrid(20, 1e-3)))
        matrix = read_csv(out / "granger_matrix.csv")
        assert matrix[0] == ["to", *net.variables]
        written = np.array([[np.nan if v == "NA" else float(v) for v in row[1:]]
                            for row in matrix[1:]])
        np.testing.assert_array_equal(written, net.p_matrix)
        edges = read_csv(out / "granger_edges.csv")
        assert edges[0] == ["from", "to", "p_value"]
        assert [(s, t, float(p)) for s, t, p in edges[1:]] == [
            (e.source, e.target, e.p_value) for e in net.edges]
        assert read_csv(out / "granger_failures.csv") == [["from", "to", "reason"]]
        dot = (out / "granger_network.dot").read_text(encoding="utf-8")
        assert dot.startswith("digraph granger {") and dot.count("->") == len(net.edges)

    def test_failures_file_lists_skipped_pairs(self, tmp_path):
        spec = SyntheticSpec(k=2, p=2, t=200,
                             recipe=SparseRecipe(density=0.3, magnitude=0.35, seed=5), seed=5)
        pnl, _ = simulate(spec)
        path = tmp_path / "panel.csv"
        values = np.column_stack([pnl.values, pnl.values[:, 0]])
        write_panel_csv(TimePanel(pnl.dates, ("a", "b", "a_copy"), values), path)
        out = tmp_path / "out"
        assert main(["granger", "--panel", str(path), "--lag", "2", "--grid", "20,0.001",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "granger_failures.csv")
        net = granger.granger_network(read_panel_csv(path), 2,
                                      cfg=LassoConfig(grid=LassoGrid(20, 1e-3)))
        assert net.failures
        assert rows == [["from", "to", "reason"], *[list(f) for f in net.failures]]
