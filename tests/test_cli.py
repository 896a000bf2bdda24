import csv
import json
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


def test_synthetic_does_not_load_the_estimation_stack():
    code = ("import importlib.util, sys, sparsevar.synthetic; "
            "print(sorted(m for m in ('sparsevar.forecasting', 'sparsevar.cv', "
            "'sparsevar.lasso') if m in sys.modules), "
            "importlib.util.find_spec('sparsevar.parallel'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[] None"


def test_package_names_load_on_first_use():
    import sparsevar
    from sparsevar import cv, simulate, synthetic

    assert simulate is synthetic.simulate
    assert sparsevar.select_lambda is cv.select_lambda
    with pytest.raises(AttributeError):
        sparsevar.parallel_map


def config_messages(capsys, argv):
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    return err["messages"]


@pytest.fixture
def panel_csv(tmp_path):
    spec = SyntheticSpec(k=2, p=1, t=120,
                         recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=3), seed=3)
    path = tmp_path / "panel.csv"
    write_panel_csv(simulate(spec)[0], path)
    return str(path)


class TestConfigErrors:
    def test_cv_rejects_ols_with_the_other_problems(self, tmp_path, capsys):
        messages = config_messages(capsys, ["cv", "--estimator", "ols",
                                            "--out", str(tmp_path / "out")])
        assert any("--estimator 'ols'" in m for m in messages)
        assert any("missing required option --panel" in m for m in messages)
        assert not (tmp_path / "out" / "cv_report.csv").exists()

    def test_cv_rejects_unknown_estimator_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "fgls"}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--lag", "1", "--out", str(tmp_path / "out")])
        assert messages == ["--estimator 'fgls': cv selects the penalty of lasso or fgls-lasso"]

    def test_unknown_config_key_is_named(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lamda": 0.1, "lag": 1, "seeed": 3}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'lamda' is not an option of cv",
                            "config key 'seeed' is not an option of cv"]
        assert not (tmp_path / "out").exists()

    def test_threads_is_no_longer_an_option(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 2}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv, "--lag", "1",
            "--estimator", "ols", "--origins", "2018-04-01:2018-04-05",
            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'threads' is not an option of forecast"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["forecast", "--threads", "2"])
        assert exc.value.code == 2

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([["lam", 0.1]]))
        assert config_messages(capsys, ["cv", "--config", str(config)]) == [
            "config file must hold one JSON object"]

    def test_known_config_keys_are_used(self, tmp_path, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag": 1, "lam": 0.05, "estimator": "lasso"}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config), "--panel", panel_csv,
                     "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["p"] == 1 and model["solver"]["lambda"] == 0.05

    def test_fit_rejects_bad_estimator_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "fgls"}))
        messages = config_messages(capsys, ["fit", "--config", str(config), "--panel", panel_csv,
                                            "--lag", "1", "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'estimator': 'fgls' is not one of 'ols', 'lasso', 'fgls-lasso'"]
        assert not (tmp_path / "out").exists()

    def test_forecast_rejects_bad_refit_policy_from_config(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"refit_policy": "never"}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv, "--lag", "1",
            "--estimator", "lasso", "--origins", "2018-04-01:2018-04-05",
            "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'refit_policy': 'never' is not one of 'first', 'per_origin'"]

    def test_every_bad_config_value_is_listed(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"refit_policy": "never", "estimator": "ridge", "lag": 1}))
        messages = config_messages(capsys, [
            "forecast", "--config", str(config), "--panel", panel_csv,
            "--origins", "2018-04-01:2018-04-05", "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'estimator': 'ridge' is not one of 'ols', 'lasso', 'fgls-lasso'",
            "config key 'refit_policy': 'never' is not one of 'first', 'per_origin'"]

    def test_config_value_of_wrong_type_is_a_config_error(self, tmp_path, capsys, panel_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_splits": "two", "lag": 1}))
        messages = config_messages(capsys, ["cv", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == ["config key 'n_splits': 'two' is not a valid int"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--lambda", "nan", "lambda must be finite and >= 0, got nan"),
        ("--lambda", "inf", "lambda must be finite and >= 0, got inf"),
        ("--tol", "inf", "tol must be finite and > 0, got inf"),
    ])
    def test_non_finite_penalty_or_tolerance_is_a_config_error(self, tmp_path, capsys, panel_csv,
                                                              option, value, message):
        out = tmp_path / "out"
        messages = config_messages(capsys, ["fit", "--panel", panel_csv, "--lag", "1",
                                            "--estimator", "lasso", option, value,
                                            "--out", str(out)])
        assert messages == [message]
        assert not (out / "model.json").exists()

    def test_every_bad_config_type_is_listed(self, tmp_path, capsys, panel_csv):
        # 1.5 is not an int on the command line, so it is not truncated to 1 here
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag": 1.5, "lam": "big", "estimator": "ridge",
                                      "tol": 1e-9, "max_sweeps": "200"}))
        messages = config_messages(capsys, ["fit", "--config", str(config), "--panel", panel_csv,
                                            "--out", str(tmp_path / "out")])
        assert messages == [
            "config key 'lag': 1.5 is not a valid int",
            "config key 'lam': 'big' is not a valid float",
            "config key 'estimator': 'ridge' is not one of 'ols', 'lasso', 'fgls-lasso'"]


    @pytest.mark.parametrize("command,key,value,expected", [
        ("cv", "grid", 10, "expected N,RATIO, N >= 1, 0 < RATIO < 1: '10'"),
        ("cv", "grid", [50, 0.001],
         "expected N,RATIO, N >= 1, 0 < RATIO < 1: '[50, 0.001]'"),
        ("forecast", "origins", 5, "expected START:END ISO dates: '5'"),
    ])
    def test_grid_and_origins_of_wrong_json_type(self, tmp_path, capsys, panel_csv,
                                                 command, key, value, expected):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value, "lag": 1}))
        messages = config_messages(capsys, [
            command, "--config", str(config), "--panel", panel_csv,
            "--estimator", "lasso", "--out", str(tmp_path / "out")])
        assert messages == [f"config key {key!r}: {expected}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate", "--threshold", "0.1"],
                                      ["evaluate", "--lag", "2"]])
    def test_subcommand_rejects_options_it_does_not_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        config = tmp_path / "config.json"
        key = argv[1].lstrip("-")
        config.write_text(json.dumps({key: float(argv[2])}))
        messages = config_messages(capsys, [argv[0], "--config", str(config),
                                            "--out", str(tmp_path / "out")])
        assert messages == [f"config key {key!r} is not an option of {argv[0]}"]
        assert not (tmp_path / "out").exists()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCvCommand:
    def test_excluded_penalties_are_written(self, tmp_path, panel_csv):
        # one sweep from a zero warm start converges only at the top of the grid
        argv = ["cv", "--panel", panel_csv, "--lag", "1", "--grid", "5,0.01",
                "--n-splits", "2", "--test-size", "20"]
        with pytest.warns(UserWarning, match="excluded"):
            assert main([*argv, "--tol", "1e-14", "--max-sweeps", "1",
                         "--out", str(tmp_path / "capped")]) == 0
        report = read_csv(tmp_path / "capped" / "cv_report.csv")
        lams = [row[0] for row in report[1:-1:2]]
        assert report[0] == ["lambda", "fold", "loss"] and len(lams) == 5
        assert all(row[2] == "" for row in report[3:-1])
        excluded = read_csv(tmp_path / "capped" / "cv_excluded.csv")
        assert excluded == [["lambda", "reason"]] + [
            [lam, "fit did not converge in fold 0, 1"] for lam in lams[1:]]
        assert main([*argv, "--out", str(tmp_path / "free")]) == 0
        assert read_csv(tmp_path / "free" / "cv_excluded.csv") == [["lambda", "reason"]]


class TestEvaluateCommand:
    def test_forecast_file_missing_a_column_is_a_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        path.write_text("origin,horizon,series,forecast,extra\n2020-01-10,1,a,0.5,x\n")
        assert main(["evaluate", f"--forecast=m={path}", "--out", str(tmp_path / "eval")]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime" and "need columns" in err["message"]
        assert not (tmp_path / "eval" / "evaluation.csv").exists()


class TestIngestCommand:
    def test_sentiment_file_missing_a_column_is_a_runtime_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("date,btc\n2021-03-01,100\n2021-03-02,101\n2021-03-03,99\n")
        items = tmp_path / "items.csv"
        items.write_text("time,valence_sum,extra\n2021-03-02T09:00:00,4.0,x\n")
        argv = ["ingest", "--prices", str(prices), f"--sentiment=tw={items}",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime" and "need columns" in err["message"]
        assert not (tmp_path / "out" / "panel.csv").exists()


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


def test_pipeline_end_to_end(tmp_path):
    """simulate -> cv -> fit -> forecast (three estimators) -> evaluate -> granger."""
    out = tmp_path
    panel = str(out / "sim" / "panel.csv")
    common = ["--panel", panel, "--lag", "2", "--grid", "10,0.01"]
    plan = ["--n-splits", "2", "--test-size", "20"]
    origins = ["--origins", "2018-07-07:2018-07-17", "--horizons", "2"]
    steps = [
        ["simulate", "--k", "3", "--t", "200", "--lag", "2", "--seed", "5",
         "--out", str(out / "sim")],
        ["cv", *common, *plan, "--out", str(out / "cv")],
        ["fit", *common, *plan, "--estimator", "lasso", "--out", str(out / "fit")],
        ["forecast", *common, *plan, *origins, "--estimator", "lasso",
         "--refit-policy", "per_origin", "--out", str(out / "lasso")],
        ["forecast", *common, *plan, *origins, "--estimator", "fgls-lasso",
         "--refit-policy", "first", "--out", str(out / "fgls")],
        ["forecast", *common, *origins, "--estimator", "ols", "--out", str(out / "ols")],
        ["evaluate", *[f"--forecast={m}={out / m / 'forecasts.csv'}"
                       for m in ("lasso", "fgls", "ols")],
         "--benchmark", "ols", "--out", str(out / "eval")],
        ["granger", *common, "--out", str(out / "granger")],
    ]
    assert [main(argv) for argv in steps] == [0] * len(steps)
    for rel in ["sim/panel.csv", "sim/truth.json", "cv/cv_report.csv", "cv/cv_excluded.csv",
                "fit/model.json",
                "lasso/forecasts.csv", "fgls/forecasts.csv", "ols/forecasts.csv",
                "eval/evaluation.csv", "granger/granger_matrix.csv",
                "granger/granger_edges.csv", "granger/granger_failures.csv",
                "granger/granger_network.dot"]:
        assert (out / rel).is_file(), rel
    forecasts = read_csv(out / "lasso" / "forecasts.csv")
    assert len(forecasts) == 1 + 11 * 2 * 3
